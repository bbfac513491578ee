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

Layout: ``<cache_dir>/seg-<pid>-<seq>-<token>.jsonl``, one record per
line: a JSON header object, then one entry line per result.  An entry
line is the CRC-32 of its JSON text as 8 hex digits, a space, and that
text, a positional row ``[digest, device, proc_cap_w, mem_cap_w,
[phase, ...]]`` in which each phase lists the 16 ``PhaseResult`` fields
in field order, the two capping mechanisms by enum name (schema 2;
schema-1 records were JSON objects keyed by field name, and their
segments are skipped whole).
Segments are read as bytes and each line is checked and decoded on its
own, so a torn line, a stray byte or a changed digit costs that record
alone: a checksum mismatch, bytes that are not UTF-8, a row of the
wrong shape, an empty phase list or nesting past the recursion limit
each skip the record with a warning.  Keys are digested with SHA-1 over
their ``repr`` — the keys are already content fingerprints (see
``SweepEngine``), so equal model inputs digest equally across processes.
Values round-trip through the pure codec :func:`encode_result` /
:func:`decode_result`; JSON float serialization is repr-based, so every
float64 field survives bit-for-bit (including infinities and NaNs).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import os
import threading
import uuid
import warnings
import weakref
import zlib
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.faults.injector import FaultEvent, FaultInjector
from repro.faults.injector import active as _faults_active
from repro.faults.plan import FaultKind
from repro.hardware.component import CappingMechanism
from repro.perfmodel.metrics import ExecutionResult, PhaseResult, _build_frozen

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
CACHE_SCHEMA_VERSION = 2

#: Records buffered in memory before an automatic segment flush.
DEFAULT_FLUSH_EVERY = 512

_SEGMENT_GLOB = "seg-*.jsonl"

#: A phase row holds the ``PhaseResult`` fields in this order.
_PHASE_FIELDS = tuple(PhaseResult.__dataclass_fields__)
_PROC_MECHANISM = _PHASE_FIELDS.index("proc_mechanism")
_MEM_MECHANISM = _PHASE_FIELDS.index("mem_mechanism")
_phase_values = operator.attrgetter(*_PHASE_FIELDS)
_MECHANISMS = CappingMechanism.__members__

#: One compact encoder for every entry line (``json.dumps`` would build a
#: new one per call because its separators differ from the default).
_ENCODER = json.JSONEncoder(separators=(",", ":"))


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
# pure codec: ExecutionResult <-> JSON-serializable rows
# ---------------------------------------------------------------------------

def encode_result(result: ExecutionResult) -> list[object]:
    """Encode an :class:`ExecutionResult` as a JSON-serializable row.

    Pure and total: ``[device, proc_cap_w, mem_cap_w, phases]``, where
    each phase lists every ``PhaseResult`` field in field order, verbatim
    (floats survive JSON bit-for-bit via repr round-trip) except the
    capping mechanisms, which are stored by enum name.
    """
    phases = []
    for phase in result.phases:
        row = list(_phase_values(phase))
        row[_PROC_MECHANISM] = phase.proc_mechanism.name
        row[_MEM_MECHANISM] = phase.mem_mechanism.name
        phases.append(row)
    return [result.device, result.proc_cap_w, result.mem_cap_w, phases]


def _decode_phase(row: object) -> PhaseResult:
    if not isinstance(row, list) or len(row) != len(_PHASE_FIELDS):
        raise ValueError(f"a cache phase row lists {len(_PHASE_FIELDS)} fields")
    values = row.copy()
    values[_PROC_MECHANISM] = _MECHANISMS[values[_PROC_MECHANISM]]
    values[_MEM_MECHANISM] = _MECHANISMS[values[_MEM_MECHANISM]]
    return _build_frozen(PhaseResult, tuple(values))


def decode_result(payload: Sequence[Any]) -> ExecutionResult:
    """Inverse of :func:`encode_result`.

    Raises ``ValueError``, ``TypeError``, ``KeyError`` or
    ``OverflowError`` on a malformed payload: not four items, no phase
    or a phase without exactly one entry per field, an unknown mechanism
    name, or a cap ``float()`` rejects.
    """
    device, proc_cap, mem_cap, raw_phases = payload
    if not isinstance(raw_phases, list) or not raw_phases:
        raise ValueError("a cache record needs a non-empty list of phases")
    return _build_frozen(ExecutionResult, (
        tuple(map(_decode_phase, raw_phases)),
        None if proc_cap is None else float(proc_cap),
        None if mem_cap is None else float(mem_cap),
        str(device),
    ))


def _entry_line(digest: str, encoded: list[object]) -> str:
    """One segment line: the CRC-32 of the row's JSON text, then the text."""
    text = _ENCODER.encode([digest, *encoded])
    return f"{zlib.crc32(text.encode()):08x} {text}"


def _decode_entry(line: bytes) -> tuple[str, ExecutionResult]:
    """Inverse of :func:`_entry_line`; raises on a bad checksum or row."""
    checksum, _, text = line.partition(b" ")
    if checksum != b"%08x" % zlib.crc32(text):
        raise ValueError("cache record checksum mismatch")
    row = json.loads(text.decode())
    if not isinstance(row, list) or len(row) != 5:
        raise ValueError("a cache record is a five-item row")
    return str(row[0]), decode_result(row[1:])


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


def _segment_lines(entries: Iterable[tuple[str, list[object]]]) -> list[str]:
    """A segment's header line, then one checksummed line per entry."""
    lines = [json.dumps(_segment_header(), sort_keys=True)]
    lines.extend(_entry_line(digest, encoded) for digest, encoded in entries)
    return lines


def _write_segment(root: Path, name: str, lines: list[str]) -> None:
    """Publish ``lines`` as one segment atomically (temp + ``os.replace``)."""
    tmp = root / f".{name}.tmp"
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(tmp, root / name)


def _publish(
    lock: threading.RLock,
    root: Path,
    pending: list[tuple[str, list[object]]],
    seq: Iterator[int],
    injector: FaultInjector | None = None,
) -> str | None:
    """Publish ``pending`` as the next new segment and empty it.

    Returns the segment's name, or ``None`` when nothing was pending.
    With an ``injector``, the ``"diskcache.write"`` site may mangle the
    lines first (:func:`_mangle_lines`).  This is also each cache's
    finalizer, run when the cache is collected or at interpreter exit,
    so it takes the cache's parts, never the cache; collection comes at
    no fixed point of a run, so the finalizer passes no injector.
    """
    with lock:
        if not pending:
            return None
        name = f"seg-{os.getpid()}-{next(seq)}-{uuid.uuid4().hex[:8]}.jsonl"
        lines = _segment_lines(pending)
        if injector is not None:
            event = injector.check("diskcache.write")
            if event is not None:
                lines = _mangle_lines(lines, event)
        _write_segment(root, name, lines)
        pending.clear()
        return name


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
    Stores buffer in memory and publish every :data:`DEFAULT_FLUSH_EVERY`
    records, on :meth:`flush`, or when the cache is collected or the
    interpreter exits, whichever comes first.
    """

    def __init__(self, root: str | Path, *, quarantine: bool = False) -> None:
        self._quarantine = bool(quarantine)
        self.root = Path(root).expanduser()
        if self.root.exists() and not self.root.is_dir():
            raise DiskCacheError(f"cache dir is not a directory: {self.root}")
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._mem: dict[str, ExecutionResult] = {}
        self._pending: list[tuple[str, list[object]]] = []
        #: Digests of keys that missed, for the store that follows: each
        #: store pops its key, and a full map (a run of misses no store
        #: claimed, e.g. of failed executions) is emptied.
        self._missed: dict[Hashable, str] = {}
        self._seen_segments: set[str] = set()
        self._seq = itertools.count(1)
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._flushes = 0
        self._records_loaded = 0
        self._segments_loaded = 0
        self._records_skipped = 0
        self._segments_skipped = 0
        self.refresh()
        weakref.finalize(
            self, _publish, self._lock, self.root, self._pending, self._seq
        )

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
            lines = path.read_bytes().splitlines()
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
            except (ValueError, AttributeError, RecursionError):
                # ValueError covers JSONDecodeError and bytes that are
                # not UTF-8.
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
                digest, result = _decode_entry(line)
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
                # ValueError covers checksum mismatches (a torn final line
                # of a killed writer, a changed byte), JSONDecodeError,
                # bytes that are not UTF-8 and malformed rows; KeyError an
                # unknown mechanism name; OverflowError an integer cap
                # too large for a float.
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
            if len(self._missed) >= DEFAULT_FLUSH_EVERY:
                self._missed.clear()
            self._missed[key] = digest
            return False, None

    def store(self, key: Hashable, value: ExecutionResult) -> None:
        """Record ``key → value``; duplicates of known digests are dropped.

        A key that just missed in :meth:`lookup` reuses that digest.
        """
        encoded = encode_result(value)
        with self._lock:
            digest = self._missed.pop(key, None) or digest_key(key)
            if digest in self._mem:
                return
            self._mem[digest] = value
            self._pending.append((digest, encoded))
            self._stores += 1
            if len(self._pending) >= DEFAULT_FLUSH_EVERY:
                self._flush_locked()

    def _flush_locked(self) -> None:
        name = _publish(
            self._lock, self.root, self._pending, self._seq, _faults_active()
        )
        if name is not None:
            self._seen_segments.add(name)
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
            lines = _segment_lines(
                (d, encode_result(r)) for d, r in sorted(self._mem.items())
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
