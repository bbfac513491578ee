"""The persistent cross-process sweep cache.

Locks the three hard requirements of :mod:`repro.core.diskcache`:
atomicity under concurrent writer processes (no interleaving ever
corrupts the store), corruption tolerance (truncated/garbage/stale
segments are skipped with a warning, never raised), and invalidation
(segments from a different format/schema/package are never served).
Also covers the codec's bit-for-bit float round-trip, the per-record
checksum, and the MemoCache / SweepEngine integration (``disk_hits``,
write-through, env plumbing).
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import struct
import subprocess
import sys
import warnings
import weakref
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import diskcache
from repro.core.diskcache import (
    CACHE_FORMAT,
    CACHE_SCHEMA_VERSION,
    CacheIntegrityWarning,
    DiskCache,
    DiskCacheError,
    decode_result,
    digest_key,
    encode_result,
)
from repro.core.parallel import MemoCache, SweepEngine
from repro.core.sweep import sweep_cpu_allocations
from repro.faults import FaultKind, FaultPlan, FaultSpec, use_faults
from repro.hardware.component import CappingMechanism
from repro.perfmodel.metrics import ExecutionResult, PhaseResult, _build_frozen

from tests.conftest import fault_plans, property_settings
from tests.test_metrics import floats


def make_result(seed: float, *, device: str = "host") -> ExecutionResult:
    """A synthetic, content-distinct ExecutionResult."""
    phase = PhaseResult(
        name=f"phase-{seed}",
        time_s=1.0 + seed,
        t_compute_s=0.5 + seed,
        t_memory_s=0.5,
        utilization=0.6,
        mem_busy=0.4,
        proc_freq_ghz=2.0,
        proc_duty=1.0,
        mem_throttle=1.0,
        proc_mechanism=CappingMechanism.DVFS,
        mem_mechanism=CappingMechanism.NONE,
        proc_power_w=90.0 + seed,
        mem_power_w=20.0,
        board_power_w=110.0 + seed if device == "gpu" else 0.0,
        flops=1e9,
        bytes_moved=1e8,
    )
    return ExecutionResult(
        phases=(phase,),
        proc_cap_w=100.0 + seed,
        mem_cap_w=30.0,
        device=device,
    )


def checksummed(text: str) -> str:
    """A segment entry line carrying ``text`` under a valid CRC-32."""
    return f"{zlib.crc32(text.encode()):08x} {text}"


def float_bits(value):
    """``value`` comparable bit for bit: a float as its IEEE bytes (NaN as
    one marker, whatever its payload), anything else with its type."""
    if type(value) is float:
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return (type(value), value)


def result_bits(result: ExecutionResult):
    return (
        type(result),
        [float_bits(v) for v in (result.proc_cap_w, result.mem_cap_w, result.device)],
        [
            [float_bits(getattr(p, f)) for f in PhaseResult.__dataclass_fields__]
            for p in result.phases
        ],
    )


_FLOAT_FIELDS = [
    f for f in PhaseResult.__dataclass_fields__
    if f not in ("name", "proc_mechanism", "mem_mechanism")
]
mechanisms = st.sampled_from(list(CappingMechanism))
results = st.builds(
    ExecutionResult,
    phases=st.lists(
        st.builds(
            PhaseResult,
            name=st.text(max_size=8),
            proc_mechanism=mechanisms,
            mem_mechanism=mechanisms,
            **{f: floats for f in _FLOAT_FIELDS},
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
    proc_cap_w=st.one_of(st.none(), floats),
    mem_cap_w=st.one_of(st.none(), floats),
    device=st.sampled_from(["host", "gpu"]),
)


def _writer_process(root: str, worker: int, n_keys: int) -> None:
    """Store overlapping + distinct keys, flushing a segment per record."""
    cache = DiskCache(root)
    for k in range(n_keys):
        cache.store(("shared", k), make_result(float(k)))
        cache.flush()
        cache.store(("worker", worker, k), make_result(worker * 100.0 + k))
        cache.flush()


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

class TestCodec:
    @pytest.mark.parametrize("device", ["host", "gpu"])
    def test_roundtrip_is_exact(self, device):
        result = make_result(1.25, device=device)
        assert decode_result(encode_result(result)) == result

    def test_roundtrip_through_json_keeps_floats_bitwise(self):
        result = make_result(0.1)  # 0.1 is not dyadic: repr must carry it
        payload = json.loads(json.dumps(encode_result(result)))
        decoded = decode_result(payload)
        assert decoded == result
        assert decoded.phases[0].time_s == result.phases[0].time_s

    def test_roundtrip_none_caps(self):
        result = ExecutionResult(
            phases=make_result(0.0).phases, proc_cap_w=None, mem_cap_w=None
        )
        assert decode_result(encode_result(result)) == result

    def test_roundtrip_inf_and_nan(self):
        base = make_result(0.0).phases[0]
        phase = PhaseResult(
            **{
                **{f: getattr(base, f) for f in base.__dataclass_fields__},
                "flops": math.inf,
                "bytes_moved": math.nan,
            }
        )
        result = ExecutionResult(phases=(phase,), proc_cap_w=1.0, mem_cap_w=1.0)
        payload = json.loads(json.dumps(encode_result(result)))
        decoded = decode_result(payload)
        assert decoded.phases[0].flops == math.inf
        assert math.isnan(decoded.phases[0].bytes_moved)

    def test_mechanisms_stored_by_name(self):
        *_, phases = encode_result(make_result(0.0))
        fields = list(PhaseResult.__dataclass_fields__)
        assert phases[0][fields.index("proc_mechanism")] == "DVFS"
        assert phases[0][fields.index("mem_mechanism")] == "NONE"

    def test_decode_rejects_malformed(self):
        device, proc_cap, mem_cap, phases = encode_result(make_result(0.0))
        row = phases[0]
        unknown = ["WARP_DRIVE" if v == "DVFS" else v for v in row]
        for payload in (
            [device, proc_cap, mem_cap, "nope"],
            [device, proc_cap, mem_cap],
            [device, proc_cap, mem_cap, []],
            [device, proc_cap, mem_cap, [row[:-1]]],
            [device, proc_cap, mem_cap, [[*row, 0.0]]],
            [device, proc_cap, mem_cap, [unknown]],
            [device, "abc", mem_cap, phases],
            {"device": "host", "phases": "nope"},
        ):
            with pytest.raises((ValueError, TypeError, KeyError)):
                decode_result(payload)

    @property_settings(50)
    @given(result=results)
    def test_store_roundtrip_keeps_every_float_bitwise(
        self, result, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("roundtrip")
        writer = DiskCache(root)
        writer.store(("k",), result)
        writer.flush()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hit, loaded = DiskCache(root).lookup(("k",))
        assert hit
        assert result_bits(loaded) == result_bits(result)

    def test_digest_is_stable_and_distinct(self):
        key = ("host", ("fp", 1.0), 144.0, 16.0)
        assert digest_key(key) == digest_key(("host", ("fp", 1.0), 144.0, 16.0))
        assert digest_key(key) != digest_key(("host", ("fp", 1.0), 144.0, 20.0))

    @property_settings(50)
    @given(result=results)
    def test_entry_line_is_the_json_dumps_text(self, result):
        # The reused encoder writes the bytes json.dumps wrote, so schema-2
        # segments read and write unchanged.
        digest = digest_key(("k", result.device))
        encoded = encode_result(result)
        text = json.dumps([digest, *encoded], separators=(",", ":"))
        assert diskcache._entry_line(digest, encoded) == (
            f"{zlib.crc32(text.encode()):08x} {text}"
        )
        assert CACHE_SCHEMA_VERSION == 2


# ---------------------------------------------------------------------------
# store basics: cross-instance persistence, refresh, compaction
# ---------------------------------------------------------------------------

class TestDiskCacheStore:
    def test_cross_instance_roundtrip(self, tmp_path):
        first = DiskCache(tmp_path)
        value = make_result(3.0)
        first.store(("k", 3), value)
        first.flush()
        second = DiskCache(tmp_path)
        hit, loaded = second.lookup(("k", 3))
        assert hit and loaded == value
        assert second.stats.records_loaded == 1

    def test_unflushed_records_are_invisible_to_other_instances(self, tmp_path):
        first = DiskCache(tmp_path)
        first.store(("k", 1), make_result(1.0))
        assert DiskCache(tmp_path).lookup(("k", 1)) == (False, None)
        first.flush()
        assert DiskCache(tmp_path).lookup(("k", 1))[0]

    def test_flush_every_publishes_automatically(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diskcache, "DEFAULT_FLUSH_EVERY", 2)
        cache = DiskCache(tmp_path)
        cache.store(("k", 1), make_result(1.0))
        assert not list(tmp_path.glob("seg-*.jsonl"))
        cache.store(("k", 2), make_result(2.0))
        assert len(list(tmp_path.glob("seg-*.jsonl"))) == 1

    def test_dropped_cache_is_collected_and_publishes_its_buffer(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store(("k", 1), make_result(1.0))
        alive = weakref.ref(cache)
        del cache
        gc.collect()
        assert alive() is None
        assert DiskCache(tmp_path).lookup(("k", 1)) == (True, make_result(1.0))

    def test_dropped_engine_releases_its_disk_tier(self, tmp_path, ivb, stream):
        engine = SweepEngine(cache_dir=tmp_path)
        swept = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, stream, 144.0, step_w=8.0, engine=engine
        )
        tier = weakref.ref(engine.disk_cache)
        del engine
        gc.collect()
        assert tier() is None
        assert len(DiskCache(tmp_path)) == len(swept.points)

    def test_buffered_records_reach_disk_at_interpreter_exit(self, tmp_path):
        # The cache is still referenced when the interpreter exits.
        code = (
            "import sys\n"
            "from repro.core.parallel import SweepEngine\n"
            "from repro.core.sweep import sweep_cpu_allocations\n"
            "from repro.hardware.platforms import ivybridge_node\n"
            "from repro.workloads import cpu_workload\n"
            "node = ivybridge_node()\n"
            "ENGINE = SweepEngine(cache_dir=sys.argv[1])\n"
            "swept = sweep_cpu_allocations(node.cpu, node.dram,\n"
            "    cpu_workload('stream'), 144.0, step_w=8.0, engine=ENGINE)\n"
            "print(len(swept.points))\n"
        )
        src = str(Path(diskcache.__file__).parents[2])
        out = subprocess.run(
            [sys.executable, "-B", "-c", code, str(tmp_path)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stderr == ""
        assert len(DiskCache(tmp_path)) == int(out.stdout) > 0

    def test_a_missed_key_is_digested_once(self, tmp_path, monkeypatch):
        digested = []

        def counting(key):
            digested.append(key)
            return digest_key(key)

        monkeypatch.setattr(diskcache, "digest_key", counting)
        cache = DiskCache(tmp_path)
        assert cache.lookup(("k", 1)) == (False, None)
        cache.store(("k", 1), make_result(1.0))
        cache.store(("k", 2), make_result(2.0))  # no lookup came first
        assert digested == [("k", 1), ("k", 2)]
        cache.flush()
        assert DiskCache(tmp_path).lookup(("k", 1)) == (True, make_result(1.0))

    def test_cold_adaptive_pass_digests_each_stored_point_once(
        self, tmp_path, monkeypatch
    ):
        # The benchmark's sweeps-adaptive load (seed 2016) into a fresh
        # disk tier: every store follows its key's missed lookup.
        monkeypatch.syspath_prepend(
            str(Path(__file__).parents[1] / "benchmarks" / "perf")
        )
        import sweeps

        digested = []

        def counting(key):
            digested.append(key)
            return digest_key(key)

        monkeypatch.setattr(diskcache, "digest_key", counting)
        engine = SweepEngine(mode="adaptive", cache_dir=tmp_path)
        calls = sweeps.build_load(2016)
        answers = sweeps.run_pass(calls, engine, True, None, None)
        engine.flush()
        assert sweeps.check_answers(calls, answers, "cold") == []
        assert engine.disk_cache.stats.stores == 1942
        assert len(digested) == 1942

    def test_flush_on_empty_is_a_noop(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.flush()
        assert not list(tmp_path.glob("seg-*.jsonl"))
        assert cache.stats.flushes == 0

    def test_refresh_sees_segments_from_other_writers(self, tmp_path):
        reader = DiskCache(tmp_path)
        writer = DiskCache(tmp_path)
        writer.store(("k", 7), make_result(7.0))
        writer.flush()
        assert reader.lookup(("k", 7)) == (False, None)
        assert reader.refresh() == 1
        assert reader.lookup(("k", 7))[0]

    def test_duplicate_digests_are_stored_once(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store(("k", 1), make_result(1.0))
        cache.store(("k", 1), make_result(1.0))
        cache.flush()
        assert cache.stats.stores == 1
        assert len(cache) == 1

    def test_compact_merges_segments(self, tmp_path):
        cache = DiskCache(tmp_path)
        for k in range(5):
            cache.store(("k", k), make_result(float(k)))
            cache.flush()
        assert len(list(tmp_path.glob("seg-*.jsonl"))) == 5
        assert cache.compact() == 5
        assert len(list(tmp_path.glob("seg-*.jsonl"))) == 1
        fresh = DiskCache(tmp_path)
        assert len(fresh) == 5
        assert fresh.stats.segments_loaded == 1

    def test_bad_root_rejected(self, tmp_path):
        target = tmp_path / "afile"
        target.write_text("not a directory")
        with pytest.raises(DiskCacheError):
            DiskCache(target)
        # The flush size is the module constant, not a setting.
        with pytest.raises(TypeError):
            DiskCache(tmp_path, flush_every=1)  # type: ignore[call-arg]


# ---------------------------------------------------------------------------
# corruption tolerance: skipped with a warning, never raised
# ---------------------------------------------------------------------------

class TestCorruptionTolerance:
    def _publish(self, root, n=3):
        cache = DiskCache(root)
        for k in range(n):
            cache.store(("k", k), make_result(float(k)))
        cache.flush()
        return sorted(root.glob("seg-*.jsonl"))

    def test_truncated_segment_skips_only_the_torn_record(self, tmp_path):
        (segment,) = self._publish(tmp_path)
        text = segment.read_text()
        segment.write_text(text[: len(text) - 40])  # tear the final record
        with pytest.warns(CacheIntegrityWarning, match="corrupt record"):
            fresh = DiskCache(tmp_path)
        assert fresh.stats.records_loaded == 2
        assert fresh.stats.records_skipped == 1
        assert fresh.lookup(("k", 0))[0]
        assert fresh.lookup(("k", 2)) == (False, None)  # recomputes

    def test_garbage_file_is_skipped_wholesale(self, tmp_path):
        self._publish(tmp_path)
        (tmp_path / "seg-999-1-deadbeef.jsonl").write_text("not json at all\n")
        with pytest.warns(CacheIntegrityWarning, match="missing or stale header"):
            fresh = DiskCache(tmp_path)
        assert fresh.stats.segments_skipped == 1
        assert fresh.stats.records_loaded == 3  # the good segment still serves

    def test_stale_schema_is_never_served(self, tmp_path):
        (segment,) = self._publish(tmp_path)
        lines = segment.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == CACHE_FORMAT
        header["schema"] = CACHE_SCHEMA_VERSION + 1
        segment.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.warns(CacheIntegrityWarning):
            fresh = DiskCache(tmp_path)
        assert len(fresh) == 0
        assert fresh.stats.segments_skipped == 1

    def test_stale_package_version_is_never_served(self, tmp_path):
        (segment,) = self._publish(tmp_path)
        lines = segment.read_text().splitlines()
        header = json.loads(lines[0])
        header["package"] = "0.0.0-other"
        segment.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.warns(CacheIntegrityWarning):
            assert len(DiskCache(tmp_path)) == 0

    def test_unknown_mechanism_name_recomputes_not_raises(self, tmp_path):
        (segment,) = self._publish(tmp_path, n=1)
        header, entry = segment.read_text().splitlines()
        # Under a valid checksum, so the row reaches the mechanism lookup.
        row = entry.partition(" ")[2].replace('"DVFS"', '"WARP_DRIVE"')
        segment.write_text(f"{header}\n{checksummed(row)}\n")
        with pytest.warns(CacheIntegrityWarning, match="corrupt record"):
            fresh = DiskCache(tmp_path)
        assert len(fresh) == 0

    def test_checksummed_malformed_rows_recompute_not_raise(self, tmp_path):
        (segment,) = self._publish(tmp_path, n=1)
        header, entry = segment.read_text().splitlines()
        digest, device, proc_cap, mem_cap, phases = json.loads(entry.partition(" ")[2])
        rows = [
            [digest, device, 10**400, mem_cap, phases],  # no float holds it
            [digest, device, proc_cap, mem_cap],
            [digest, device, proc_cap, mem_cap, [phases[0][:-1]]],
            [],
            {"digest": digest},
            "text",
        ]
        lines = [header] + [checksummed(json.dumps(row)) for row in rows]
        segment.write_text("\n".join(lines) + "\n")
        with pytest.warns(CacheIntegrityWarning, match="corrupt record"):
            fresh = DiskCache(tmp_path)
        assert len(fresh) == 0
        assert fresh.stats.records_skipped == len(rows)

    def test_non_utf8_byte_recomputes_not_raises(self, tmp_path):
        (segment,) = self._publish(tmp_path)
        data = bytearray(segment.read_bytes())
        data[data.index(b"phase-1.0")] = 0xFF  # inside the second entry
        segment.write_bytes(bytes(data))
        with pytest.warns(CacheIntegrityWarning, match="corrupt record"):
            fresh = DiskCache(tmp_path)
        assert fresh.stats.records_loaded == 2
        assert fresh.stats.records_skipped == 1
        assert fresh.lookup(("k", 1)) == (False, None)
        data[data.index(b"header")] = 0xFF  # the header skips its segment
        segment.write_bytes(bytes(data))
        with pytest.warns(CacheIntegrityWarning, match="missing or stale header"):
            fresh = DiskCache(tmp_path)
        assert len(fresh) == 0
        assert fresh.stats.segments_skipped == 1

    def test_empty_phase_list_recomputes_not_raises(self, tmp_path):
        self._publish(tmp_path)
        writer = DiskCache(tmp_path)
        # Built past ExecutionResult's own check, then stored as it is.
        writer.store(("hollow",), _build_frozen(ExecutionResult, ((), 1.0, 1.0, "host")))
        writer.flush()
        with pytest.warns(CacheIntegrityWarning, match="corrupt record"):
            fresh = DiskCache(tmp_path)
        assert fresh.lookup(("hollow",)) == (False, None)
        assert fresh.stats.records_loaded == 3
        assert fresh.stats.records_skipped == 1

    def test_deep_nesting_recomputes_not_raises(self, tmp_path):
        (segment,) = self._publish(tmp_path)
        deep = "[" * 100_000 + "]" * 100_000
        with segment.open("a") as fh:  # bare, and under a valid checksum
            fh.write(f"{deep}\n{checksummed(deep)}\n")
        (tmp_path / "seg-999-1-deadbeef.jsonl").write_text(deep + "\n")
        with pytest.warns(CacheIntegrityWarning):
            fresh = DiskCache(tmp_path)
        assert fresh.stats.records_loaded == 3
        assert fresh.stats.records_skipped == 2
        assert fresh.stats.segments_skipped == 1

    def test_changed_digit_fails_the_checksum(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store(("k", 0), make_result(0.25))
        cache.flush()
        (segment,) = tmp_path.glob("seg-*.jsonl")
        text = segment.read_text()
        assert text.count("90.25") == 1  # proc_power_w
        segment.write_text(text.replace("90.25", "98.25"))
        with pytest.warns(CacheIntegrityWarning, match="corrupt record"):
            fresh = DiskCache(tmp_path, quarantine=True)
        assert fresh.lookup(("k", 0)) == (False, None)
        assert fresh.stats.records_skipped == 1
        assert (tmp_path / "quarantine" / segment.name).exists()

    @property_settings(60)
    @given(position=st.integers(-(2**12), 2**12), value=st.integers(0, 255))
    # Negative positions count from the end: the last entry's floats.
    @example(position=-40, value=0xFF)
    @example(position=-7, value=ord("7"))  # bytes_moved 100000000.0 -> ...07.0
    def test_one_overwritten_byte_never_raises_or_lies(
        self, position, value, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("byte-store")
        (segment,) = self._publish(root)
        data = bytearray(segment.read_bytes())
        data[position % len(data)] = value
        segment.write_bytes(bytes(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CacheIntegrityWarning)
            fresh = DiskCache(root)
        for k in range(3):
            hit, loaded = fresh.lookup(("k", k))
            if hit:
                assert loaded == make_result(float(k))

    def test_schema_1_segment_is_skipped_whole(self, tmp_path):
        from repro import __version__

        # The dict-per-field layout of schema 1, as its writer published it.
        (tmp_path / "seg-1-1-0000abcd.jsonl").write_text(
            '{"format": "repro-sweep-cache", "package": "%s", "record": '
            '"header", "schema": 1}\n'
            '{"digest": "25dc2db2d1c218d1f8bd36f57e7aa63815b3997d", "record": '
            '"entry", "result": {"device": "host", "mem_cap_w": 30.0, '
            '"phases": [{"board_power_w": 0.0, "bytes_moved": 100000000.0, '
            '"flops": 1000000000.0, "mem_busy": 0.4, "mem_mechanism": "NONE", '
            '"mem_power_w": 20.0, "mem_throttle": 1.0, "name": "phase-0.0", '
            '"proc_duty": 1.0, "proc_freq_ghz": 2.0, "proc_mechanism": "DVFS", '
            '"proc_power_w": 90.0, "t_compute_s": 0.5, "t_memory_s": 0.5, '
            '"time_s": 1.0, "utilization": 0.6}], "proc_cap_w": 100.0}}\n'
            % __version__
        )
        with pytest.warns(CacheIntegrityWarning, match="stale header") as caught:
            fresh = DiskCache(tmp_path)
        assert len(caught) == 1
        assert digest_key(("k", 0)) == "25dc2db2d1c218d1f8bd36f57e7aa63815b3997d"
        assert fresh.lookup(("k", 0)) == (False, None)
        assert fresh.stats.segments_skipped == 1
        assert len(fresh) == 0

    def test_foreign_files_are_ignored_silently(self, tmp_path):
        self._publish(tmp_path)
        (tmp_path / "notes.jsonl").write_text("unrelated\n")
        (tmp_path / "README").write_text("hands off\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh = DiskCache(tmp_path)
        assert len(fresh) == 3


# ---------------------------------------------------------------------------
# concurrency: parallel writer processes never corrupt the store
# ---------------------------------------------------------------------------

class TestConcurrentWriters:
    def test_parallel_writer_processes(self, tmp_path):
        # The store gets its own per-test subdirectory: nothing else
        # (pytest artifacts, sibling fixtures, a previous flaky run's
        # leftovers) can ever be scanned as a segment, and every run
        # starts from a provably empty root.
        root = tmp_path / "shared-store"
        root.mkdir()
        n_workers, n_keys = 4, 8
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_writer_process, args=(str(root), w, n_keys))
            for w in range(n_workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        hung = [p for p in procs if p.is_alive()]
        for p in hung:  # never leak a live writer into later tests
            p.terminate()
            p.join(timeout=10)
        assert not hung, f"{len(hung)} writer(s) hung past the join deadline"
        assert [p.exitcode for p in procs] == [0] * n_workers
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # zero integrity warnings allowed
            reader = DiskCache(root)
        stats = reader.stats
        assert stats.segments_skipped == 0
        assert stats.records_skipped == 0
        # Every distinct key is served; shared keys deduplicate on load.
        assert len(reader) == n_keys + n_workers * n_keys
        for k in range(n_keys):
            hit, value = reader.lookup(("shared", k))
            assert hit and value == make_result(float(k))
        for w in range(n_workers):
            for k in range(n_keys):
                assert reader.lookup(("worker", w, k))[0]

    def test_concurrent_threads_on_one_instance(self, tmp_path, monkeypatch):
        import threading

        root = tmp_path / "shared-store"
        root.mkdir()
        monkeypatch.setattr(diskcache, "DEFAULT_FLUSH_EVERY", 4)
        cache = DiskCache(root)
        errors: list[Exception] = []

        def hammer(worker: int) -> None:
            try:
                for k in range(32):
                    cache.store((worker, k), make_result(worker * 1000.0 + k))
                    cache.lookup((worker, k))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not [t for t in threads if t.is_alive()]
        cache.flush()
        assert not errors
        fresh = DiskCache(root)
        assert len(fresh) == 8 * 32
        assert fresh.stats.records_skipped == 0


# ---------------------------------------------------------------------------
# injected write faults: torn/corrupt segments degrade, never lie
# ---------------------------------------------------------------------------

class TestFaultedWrites:
    def test_torn_write_poisons_only_the_disk_tier(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            specs=(
                FaultSpec(
                    site="diskcache.write",
                    kind=FaultKind.TORN_WRITE,
                    probability=1.0,
                ),
            ),
        )
        value = make_result(0.0)
        with use_faults(plan):
            cache = DiskCache(tmp_path)
            cache.store(("k", 0), value)
            cache.flush()
        # The writer's own in-memory copy is untouched by the torn disk.
        assert cache.lookup(("k", 0)) == (True, value)
        with pytest.warns(CacheIntegrityWarning, match="corrupt record"):
            fresh = DiskCache(tmp_path)
        assert fresh.lookup(("k", 0)) == (False, None)  # recomputes

    def test_quarantine_isolates_the_mangled_segment(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            specs=(
                FaultSpec(
                    site="diskcache.write",
                    kind=FaultKind.CORRUPT_WRITE,
                    probability=1.0,
                ),
            ),
        )
        with use_faults(plan):
            cache = DiskCache(tmp_path)
            cache.store(("k", 0), make_result(0.0))
            cache.flush()
        with pytest.warns(CacheIntegrityWarning):
            quarantining = DiskCache(tmp_path, quarantine=True)
        assert quarantining.lookup(("k", 0)) == (False, None)
        assert list((tmp_path / "quarantine").glob("seg-*.jsonl"))
        # The poisoned segment is out of the scan path: re-opens are clean.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DiskCache(tmp_path)

    @property_settings(15)
    @given(plan=fault_plans(sites=("diskcache.write",)))
    def test_mangled_writes_never_serve_wrong_values(
        self, plan, tmp_path_factory
    ):
        # The degradation contract, fuzzed over write-fault schedules: a
        # reader of a store written under ANY torn/corrupt plan may miss
        # (recompute), but a hit must be the bit-exact stored value.
        root = tmp_path_factory.mktemp("faulted-store")
        values = {("k", k): make_result(float(k)) for k in range(4)}
        with use_faults(plan):
            cache = DiskCache(root)
            for key, value in values.items():
                cache.store(key, value)
                cache.flush()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CacheIntegrityWarning)
            fresh = DiskCache(root)
        for key, value in values.items():
            hit, loaded = fresh.lookup(key)
            if hit:
                assert loaded == value


# ---------------------------------------------------------------------------
# MemoCache / SweepEngine integration
# ---------------------------------------------------------------------------

class TestTwoTierCache:
    def test_memory_miss_falls_through_and_promotes(self, tmp_path):
        seed = DiskCache(tmp_path)
        seed.store(("k", 1), make_result(1.0))
        seed.flush()
        memo = MemoCache(maxsize=8, backing=DiskCache(tmp_path))
        hit, value = memo.lookup(("k", 1))
        assert hit and value == make_result(1.0)
        assert memo.stats.disk_hits == 1
        memo.lookup(("k", 1))  # now promoted: served from memory
        assert memo.stats.hits == 2
        assert memo.stats.disk_hits == 1

    def test_eviction_never_loses_a_result(self, tmp_path):
        memo = MemoCache(maxsize=1, backing=DiskCache(tmp_path))
        memo.store(("k", 1), make_result(1.0))
        memo.store(("k", 2), make_result(2.0))  # evicts ("k", 1) from memory
        assert memo.stats.evictions == 1
        hit, value = memo.lookup(("k", 1))
        assert hit and value == make_result(1.0)
        assert memo.stats.disk_hits == 1

    def test_engine_cache_dir_warms_across_engines(self, tmp_path, ivb, stream):
        cold = SweepEngine(cache_dir=tmp_path)
        first = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, stream, 208.0, step_w=8.0, engine=cold
        )
        cold.flush()
        assert cold.stats.disk_hits == 0
        warm = SweepEngine(cache_dir=tmp_path)
        second = sweep_cpu_allocations(
            ivb.cpu, ivb.dram, stream, 208.0, step_w=8.0, engine=warm
        )
        assert warm.stats.disk_hits == len(first.points)
        assert second.points == first.points

    def test_engine_flush_publishes_disk_segments(self, tmp_path, ivb, stream):
        engine = SweepEngine(cache_dir=tmp_path)
        sweep_cpu_allocations(
            ivb.cpu, ivb.dram, stream, 144.0, step_w=8.0, engine=engine
        )
        engine.flush()
        assert list(tmp_path.glob("seg-*.jsonl"))

    def test_env_var_resolution(self, tmp_path):
        """The disk tier resolves from ``cache_dir`` alone, never the environment."""
        assert SweepEngine().disk_cache is None
        engine = SweepEngine(cache_dir=tmp_path)
        assert engine.disk_cache is not None
        assert engine.disk_cache.root == tmp_path
        # A string root (the CLI's --cache-dir) names the same directory.
        other = tmp_path / "from-flag"
        assert SweepEngine(cache_dir=str(other)).disk_cache.root == other
