"""The persistent cross-process sweep cache.

Locks the three hard requirements of :mod:`repro.core.diskcache`:
atomicity under concurrent writer processes (no interleaving ever
corrupts the store), corruption tolerance (truncated/garbage/stale
segments are skipped with a warning, never raised), and invalidation
(segments from a different format/schema/package are never served).
Also covers the codec's bit-for-bit float round-trip and the MemoCache /
SweepEngine integration (``disk_hits``, write-through, env plumbing).
"""

from __future__ import annotations

import json
import math
import multiprocessing
import warnings

import pytest
from hypothesis import given

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
from repro.core.parallel import (
    CACHE_DIR_ENV_VAR,
    MemoCache,
    SweepEngine,
    resolve_cache_dir,
)
from repro.core.sweep import sweep_cpu_allocations
from repro.errors import SweepError
from repro.faults import FaultKind, FaultPlan, FaultSpec, use_faults
from repro.hardware.component import CappingMechanism
from repro.perfmodel.metrics import ExecutionResult, PhaseResult

from tests.conftest import fault_plans, property_settings


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


def _writer_process(root: str, worker: int, n_keys: int) -> None:
    """Store overlapping + distinct keys, flushing a segment per record."""
    cache = DiskCache(root, flush_every=1)
    for k in range(n_keys):
        cache.store(("shared", k), make_result(float(k)))
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
        payload = encode_result(make_result(0.0))
        assert payload["phases"][0]["proc_mechanism"] == "DVFS"
        assert payload["phases"][0]["mem_mechanism"] == "NONE"

    def test_decode_rejects_malformed(self):
        with pytest.raises((TypeError, KeyError)):
            decode_result({"device": "host", "phases": "nope"})

    def test_digest_is_stable_and_distinct(self):
        key = ("host", ("fp", 1.0), 144.0, 16.0)
        assert digest_key(key) == digest_key(("host", ("fp", 1.0), 144.0, 16.0))
        assert digest_key(key) != digest_key(("host", ("fp", 1.0), 144.0, 20.0))


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

    def test_flush_every_publishes_automatically(self, tmp_path):
        cache = DiskCache(tmp_path, flush_every=2)
        cache.store(("k", 1), make_result(1.0))
        assert not list(tmp_path.glob("seg-*.jsonl"))
        cache.store(("k", 2), make_result(2.0))
        assert len(list(tmp_path.glob("seg-*.jsonl"))) == 1

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
        cache = DiskCache(tmp_path, flush_every=1)
        for k in range(5):
            cache.store(("k", k), make_result(float(k)))
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
        with pytest.raises(DiskCacheError):
            DiskCache(tmp_path, flush_every=0)


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
        text = segment.read_text().replace('"DVFS"', '"WARP_DRIVE"')
        segment.write_text(text)
        with pytest.warns(CacheIntegrityWarning, match="corrupt record"):
            fresh = DiskCache(tmp_path)
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

    def test_concurrent_threads_on_one_instance(self, tmp_path):
        import threading

        root = tmp_path / "shared-store"
        root.mkdir()
        cache = DiskCache(root, flush_every=4)
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
            t.join()
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
            cache = DiskCache(tmp_path, flush_every=1)
            cache.store(("k", 0), value)
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
            cache = DiskCache(tmp_path, flush_every=1)
            cache.store(("k", 0), make_result(0.0))
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
            cache = DiskCache(root, flush_every=1)
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

    def test_cache_and_cache_dir_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SweepError):
            SweepEngine(cache=MemoCache(8), cache_dir=tmp_path)

    def test_env_var_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        assert resolve_cache_dir(None) is None
        assert SweepEngine().disk_cache is None
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        assert resolve_cache_dir(None) == tmp_path
        engine = SweepEngine()
        assert engine.disk_cache is not None
        assert engine.disk_cache.root == tmp_path
        # Explicit argument wins over the environment.
        other = tmp_path / "explicit"
        assert SweepEngine(cache_dir=other).disk_cache.root == other
