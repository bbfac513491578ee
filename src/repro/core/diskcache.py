"""Persistent cross-process sweep cache — the disk tier behind MemoCache.

The in-memory :class:`~repro.core.parallel.MemoCache` dies with its
process, so every experiment run, benchmark repeat, and pool worker
starts cold even though the model is a pure function of content-
fingerprinted keys.  This module adds an opt-in disk tier
(``SweepEngine(cache_dir=...)`` / ``--cache-dir``) with three hard
requirements:

* **atomicity** — concurrent writers (pool workers, parallel CI jobs)
  must never corrupt the store.  Each flush writes a brand-new segment
  file via write-temp-then-``os.replace``; nothing ever appends to or
  rewrites a published segment, so readers only ever see complete files;
* **corruption tolerance** — a truncated or garbage segment (killed
  process, disk full, manual tampering) is *skipped with a warning* and
  the affected keys simply recompute; loading never raises;
* **invalidation** — every segment opens with a header stamping the
  cache format, schema version, and package version.  A mismatch on any
  of the three skips the whole segment: results serialized by a
  different model version are never served.

Layout: ``<cache_dir>/seg-<pid>-<seq>-<token>.jsonl``, one JSON record
per line (a header line, then ``{"record": "entry", "digest", "result"}``
lines).  Keys are digested with SHA-1 over their ``repr`` — the keys are
already content fingerprints (see ``SweepEngine``), so equal model
inputs digest equally across processes.  Values round-trip through the
pure codec :func:`encode_result` / :func:`decode_result`; JSON float
serialization is repr-based, so every float64 field survives bit-for-bit
(including infinities and NaNs).
"""

from __future__ import annotations

import atexit
import dataclasses
import enum
import hashlib
import json
import os
import threading
import uuid
import warnings
from collections.abc import Hashable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.faults.injector import FaultEvent
from repro.faults.injector import active as _faults_active
from repro.faults.plan import FaultKind
from repro.hardware.component import CappingMechanism
from repro.perfmodel.metrics import ExecutionResult, PhaseResult

__all__ = [
    "CACHE_FORMAT",
    "CACHE_SCHEMA_VERSION",
    "CacheIntegrityWarning",
    "DiskCache",
    "DiskCacheError",
    "DiskCacheStats",
    "decode_result",
    "digest_key",
    "encode_result",
]

#: Magic identifying a segment as ours (guards against stray .jsonl files).
CACHE_FORMAT = "repro-sweep-cache"

#: Bump when the record layout or the codec changes shape: older
#: segments are skipped wholesale, never misread.
CACHE_SCHEMA_VERSION = 1

#: Records buffered in memory before an automatic segment flush.
DEFAULT_FLUSH_EVERY = 512

_SEGMENT_GLOB = "seg-*.jsonl"


class DiskCacheError(ReproError):
    """The disk cache was configured with an unusable directory."""


class CacheIntegrityWarning(UserWarning):
    """A cache segment or record was skipped (corrupt, foreign, or stale)."""


def digest_key(key: Hashable) -> str:
    """Stable cross-process digest of an engine cache key.

    Engine keys are tuples of content fingerprints and float caps, whose
    ``repr`` is deterministic across processes and sessions.
    """
    return hashlib.sha1(repr(key).encode()).hexdigest()


# ---------------------------------------------------------------------------
# pure codec: ExecutionResult <-> JSON-serializable dicts
# ---------------------------------------------------------------------------

def encode_result(result: ExecutionResult) -> dict[str, object]:
    """Encode an :class:`ExecutionResult` as a JSON-serializable dict.

    Pure and total: every dataclass field is carried verbatim (floats
    survive JSON bit-for-bit via repr round-trip); capping mechanisms are
    stored by enum name.
    """
    phases = []
    for phase in result.phases:
        record: dict[str, object] = {}
        for field in dataclasses.fields(phase):
            value = getattr(phase, field.name)
            record[field.name] = value.name if isinstance(value, enum.Enum) else value
        phases.append(record)
    return {
        "device": result.device,
        "proc_cap_w": result.proc_cap_w,
        "mem_cap_w": result.mem_cap_w,
        "phases": phases,
    }


def _decode_phase(record: Mapping[str, object]) -> PhaseResult:
    kwargs: dict[str, Any] = dict(record)
    kwargs["proc_mechanism"] = CappingMechanism[str(kwargs["proc_mechanism"])]
    kwargs["mem_mechanism"] = CappingMechanism[str(kwargs["mem_mechanism"])]
    return PhaseResult(**kwargs)


def decode_result(payload: Mapping[str, object]) -> ExecutionResult:
    """Inverse of :func:`encode_result` (raises on malformed payloads)."""
    raw_phases = payload["phases"]
    if not isinstance(raw_phases, list):
        raise TypeError("cache record 'phases' must be a list")
    proc_cap = payload["proc_cap_w"]
    mem_cap = payload["mem_cap_w"]
    return ExecutionResult(
        phases=tuple(_decode_phase(p) for p in raw_phases),
        proc_cap_w=None if proc_cap is None else float(proc_cap),  # type: ignore[arg-type]
        mem_cap_w=None if mem_cap is None else float(mem_cap),  # type: ignore[arg-type]
        device=str(payload["device"]),
    )


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskCacheStats:
    """Point-in-time counters of a :class:`DiskCache`."""

    hits: int
    misses: int
    stores: int
    flushes: int
    size: int
    records_loaded: int
    segments_loaded: int
    records_skipped: int
    segments_skipped: int


def _segment_header() -> dict[str, object]:
    from repro import __version__

    return {
        "record": "header",
        "format": CACHE_FORMAT,
        "schema": CACHE_SCHEMA_VERSION,
        "package": __version__,
    }


def _header_matches(record: Mapping[str, object]) -> bool:
    from repro import __version__

    return (
        record.get("record") == "header"
        and record.get("format") == CACHE_FORMAT
        and record.get("schema") == CACHE_SCHEMA_VERSION
        and record.get("package") == __version__
    )


def _write_segment(root: Path, name: str, lines: list[str]) -> None:
    """Publish ``lines`` as one segment atomically (temp + ``os.replace``)."""
    tmp = root / f".{name}.tmp"
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(tmp, root / name)


def _mangle_lines(lines: list[str], event: FaultEvent) -> list[str]:
    """Apply a write fault to segment lines before publication.

    Fault-injection site ``"diskcache.write"``: a TORN_WRITE cuts the
    final record mid-line (the shape a killed writer or full disk leaves
    behind once the atomic-rename discipline is bypassed at a lower
    layer); a CORRUPT_WRITE splices garbage into it (bit rot, tampering).
    Either way only the disk tier degrades — the in-memory copy of every
    record is untouched, so results stay bit-identical and the cost is
    the poisoned records recomputing in other processes.
    """
    if len(lines) < 2:
        return lines
    victim = lines[-1]
    if event.kind is FaultKind.TORN_WRITE:
        return lines[:-1] + [victim[: max(1, len(victim) // 2)]]
    return lines[:-1] + [victim[:10] + "\x00garbage\x00" + victim[10:]]


class DiskCache:
    """Append-only segmented store of ``digest → ExecutionResult``.

    Thread-safe; safe against concurrent writer *processes* by design
    (writers only ever create new uniquely-named segments atomically).
    Stores buffer in memory and publish every ``flush_every`` records, on
    :meth:`flush`, or at interpreter exit.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        quarantine: bool = False,
    ) -> None:
        if flush_every < 1:
            raise DiskCacheError(f"flush_every must be >= 1, got {flush_every}")
        self._quarantine = bool(quarantine)
        self.root = Path(root).expanduser()
        if self.root.exists() and not self.root.is_dir():
            raise DiskCacheError(f"cache dir is not a directory: {self.root}")
        self.root.mkdir(parents=True, exist_ok=True)
        self._flush_every = flush_every
        self._lock = threading.RLock()
        self._mem: dict[str, ExecutionResult] = {}
        self._pending: list[tuple[str, dict[str, object]]] = []
        self._seen_segments: set[str] = set()
        self._seq = 0
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._flushes = 0
        self._records_loaded = 0
        self._segments_loaded = 0
        self._records_skipped = 0
        self._segments_skipped = 0
        self.refresh()
        atexit.register(self.flush)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        """Where poisoned segments are moved when quarantine is enabled."""
        return self.root / "quarantine"

    def _quarantine_segment(self, path: Path) -> Path | None:
        """Move a poisoned segment out of the live store (opt-in).

        Isolating the file keeps every future process from re-parsing
        (and re-warning about) the same corruption; :meth:`rebuild`
        then republishes the loadable records as one clean segment.
        """
        if not self._quarantine:
            return None
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
            target = self.quarantine_dir / path.name
            os.replace(path, target)
        except OSError:  # pragma: no cover - racing writer/cleaner
            return None
        return target

    def _load_segment(self, path: Path) -> None:
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            warnings.warn(
                f"skipping unreadable cache segment {path.name}: {exc}",
                CacheIntegrityWarning,
                stacklevel=3,
            )
            self._segments_skipped += 1
            self._quarantine_segment(path)
            return
        header_ok = False
        if lines:
            try:
                header_ok = _header_matches(json.loads(lines[0]))
            except (json.JSONDecodeError, AttributeError):
                header_ok = False
        if not header_ok:
            warnings.warn(
                f"skipping cache segment {path.name}: missing or stale header "
                f"(expected {CACHE_FORMAT} schema {CACHE_SCHEMA_VERSION})",
                CacheIntegrityWarning,
                stacklevel=3,
            )
            self._segments_skipped += 1
            self._quarantine_segment(path)
            return
        bad_lines = 0
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if record["record"] != "entry":
                    raise ValueError(f"unexpected record type {record['record']!r}")
                digest = str(record["digest"])
                result = decode_result(record["result"])
            except (ValueError, KeyError, TypeError):
                # ValueError covers JSONDecodeError (truncated final line
                # of a killed writer) and enum-name mismatches.
                bad_lines += 1
                continue
            if digest not in self._mem:
                self._mem[digest] = result
                self._records_loaded += 1
        if bad_lines:
            warnings.warn(
                f"skipped {bad_lines} corrupt record(s) in cache segment "
                f"{path.name}; affected keys will recompute",
                CacheIntegrityWarning,
                stacklevel=3,
            )
            self._records_skipped += bad_lines
            # The loadable records are already in memory; isolating the
            # poisoned file (when enabled) lets rebuild() republish them
            # cleanly.
            self._quarantine_segment(path)
        self._segments_loaded += 1

    def refresh(self) -> int:
        """Scan the directory for segments not yet loaded; return new count."""
        with self._lock:
            before = self._records_loaded
            for path in sorted(self.root.glob(_SEGMENT_GLOB)):
                if path.name in self._seen_segments:
                    continue
                self._seen_segments.add(path.name)
                self._load_segment(path)
            return self._records_loaded - before

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def lookup(self, key: Hashable) -> tuple[bool, ExecutionResult | None]:
        """``(hit, value)`` for ``key``; counts the lookup either way."""
        digest = digest_key(key)
        with self._lock:
            value = self._mem.get(digest)
            if value is not None:
                self._hits += 1
                return True, value
            self._misses += 1
            return False, None

    def store(self, key: Hashable, value: ExecutionResult) -> None:
        """Record ``key → value``; duplicates of known digests are dropped."""
        digest = digest_key(key)
        encoded = encode_result(value)
        with self._lock:
            if digest in self._mem:
                return
            self._mem[digest] = value
            self._pending.append((digest, encoded))
            self._stores += 1
            if len(self._pending) >= self._flush_every:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._pending:
            return
        self._seq += 1
        name = f"seg-{os.getpid()}-{self._seq}-{uuid.uuid4().hex[:8]}.jsonl"
        lines = [json.dumps(_segment_header(), sort_keys=True)]
        lines.extend(
            json.dumps({"record": "entry", "digest": d, "result": r}, sort_keys=True)
            for d, r in self._pending
        )
        injector = _faults_active()
        if injector is not None:
            event = injector.check("diskcache.write")
            if event is not None:
                lines = _mangle_lines(lines, event)
        _write_segment(self.root, name, lines)
        self._seen_segments.add(name)
        self._pending.clear()
        self._flushes += 1

    def flush(self) -> None:
        """Publish buffered records as a new segment (no-op when empty)."""
        with self._lock:
            self._flush_locked()

    def rebuild(self) -> int:
        """Quarantine-and-rebuild recovery: re-scan, then rewrite cleanly.

        Picks up any segments published since the last refresh (moving
        poisoned ones to :attr:`quarantine_dir` when quarantine is
        enabled), then compacts every loadable record into one fresh,
        verified segment.  Returns the record count of the rebuilt store.
        """
        with self._lock:
            self.refresh()
            return self.compact()

    def compact(self) -> int:
        """Rewrite the store as one segment; returns the record count.

        Stale/corrupt segments are dropped in the process (their entries
        were never loaded).  Safe against concurrent readers — the merged
        segment is published atomically before the old ones are removed.
        """
        with self._lock:
            self._flush_locked()
            old = sorted(self.root.glob(_SEGMENT_GLOB))
            name = f"seg-{os.getpid()}-compact-{uuid.uuid4().hex[:8]}.jsonl"
            lines = [json.dumps(_segment_header(), sort_keys=True)]
            lines.extend(
                json.dumps(
                    {"record": "entry", "digest": d, "result": encode_result(r)},
                    sort_keys=True,
                )
                for d, r in sorted(self._mem.items())
            )
            _write_segment(self.root, name, lines)
            self._seen_segments.add(name)
            for path in old:
                if path.name != name:
                    path.unlink(missing_ok=True)
                    self._seen_segments.discard(path.name)
            return len(self._mem)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    @property
    def stats(self) -> DiskCacheStats:
        with self._lock:
            return DiskCacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                flushes=self._flushes,
                size=len(self._mem),
                records_loaded=self._records_loaded,
                segments_loaded=self._segments_loaded,
                records_skipped=self._records_skipped,
                segments_skipped=self._segments_skipped,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskCache(root={str(self.root)!r}, size={len(self)})"
