"""Zero-copy artifact data plane: npy-segment cache payloads,
handle-passing workers, hit-first node lookups and persisted verdicts.

Unit tests for the payload codec and the disk cache's segment layout
run unconditionally.  The sweep-level chaos test (worker kills against
handle-passing) is gated behind ``OBFUSCADE_FAULTS=1`` like the rest of
the chaos suite.
"""

import hashlib
import os
import pickle

import numpy as np
import pytest

from repro import faults
from repro import observability as obs
from repro.cad import COARSE
from repro.faults import FaultPlan, FaultSpec
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import assess_print
from repro.observability import Tracer, export
from repro.pipeline import DiskStageCache, ParallelSweep, ROOTS_STAGE
from repro.pipeline import payload, scheduler
from repro.pipeline.disk import DERIVED_STAGE
from repro.printer.orientation import PrintOrientation

chaos = pytest.mark.skipif(
    os.environ.get("OBFUSCADE_FAULTS") != "1",
    reason="chaos suite; enable with OBFUSCADE_FAULTS=1",
)

GRID_RESOLUTIONS = (COARSE,)
GRID_ORIENTATIONS = (PrintOrientation.XY, PrintOrientation.XZ)


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def protected():
    return Obfuscator(seed=7).protect_tensile_bar()


@pytest.fixture(scope="module")
def baseline(protected):
    """Fault-free serial, memory-cache-only fingerprints."""
    report = ParallelSweep(jobs=1).run(
        protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
        assess=assess_print,
    )
    assert report.ok
    return {(c.resolution, c.orientation): c.fingerprint for c in report.cells}


def _fingerprints(report):
    return {(c.resolution, c.orientation): c.fingerprint for c in report.cells}


def _verdicts(report):
    return {
        (c.resolution, c.orientation): (c.assessment.grade, c.assessment.score)
        for c in report.cells
    }


def reassess_print(outcome):
    """``assess_print`` under another identity: its verdicts are keyed
    apart, so a warm cache must re-read the grids to produce them."""
    return assess_print(outcome)


def _sweep(protected, cache_dir, assess=assess_print, jobs=1):
    return ParallelSweep(jobs=jobs, cache_dir=str(cache_dir)).run(
        protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS, assess=assess,
    )


def _grid_value():
    """A stage value large enough that its arrays become segments."""
    return {
        "grid": np.arange(4096, dtype=np.float64).reshape(64, 64),
        "mask": np.zeros((128, 64), dtype=bool) | (np.arange(64) % 3 == 0),
        "cell_mm": 0.1,
        "name": "plate",
    }


class TestPayloadCodec:
    def test_extract_restore_roundtrip(self):
        value = {
            "a": np.arange(2048, dtype=np.float64),
            "nested": (np.ones((80, 80), dtype=np.uint8), "label"),
            "small": np.arange(3),  # below the segment threshold
            "scalar": 7,
        }
        skeleton, arrays = payload.extract_arrays(value)
        assert len(arrays) == 2  # only the big arrays segment
        back = payload.restore_arrays(skeleton, arrays)
        np.testing.assert_array_equal(back["a"], value["a"])
        np.testing.assert_array_equal(back["nested"][0], value["nested"][0])
        assert back["nested"][1] == "label"
        np.testing.assert_array_equal(back["small"], value["small"])
        assert back["scalar"] == 7

    def test_no_arrays_means_no_segments(self):
        skeleton, arrays = payload.extract_arrays({"k": [1, 2, 3]})
        assert arrays == []
        assert payload.restore_arrays(skeleton, arrays) == {"k": [1, 2, 3]}

    def test_header_is_recognizable(self):
        skeleton, arrays = payload.extract_arrays(_grid_value())
        header = payload.make_header(skeleton, len(arrays))
        assert payload.is_segmented_header(header)
        assert not payload.is_segmented_header({"plain": "dict"})

    def test_write_npy_streams_the_hash(self, tmp_path):
        array = np.arange(2048, dtype=np.float64)
        target = tmp_path / "seg.npy"
        with open(target, "wb") as fh:
            digest, nbytes = payload.write_npy(fh, array)
        assert nbytes == target.stat().st_size
        assert digest == payload.hash_file(target)
        assert digest == hashlib.sha256(target.read_bytes()).hexdigest()
        np.testing.assert_array_equal(payload.load_npy_mmap(target), array)


class TestSegmentedDiskLayout:
    def test_arrays_land_as_npy_segments(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.get_or_run("deposit", "k1", _grid_value)
        stage_dir = tmp_path / "deposit"
        segments = sorted(stage_dir.glob("k1.seg*.npy"))
        assert len(segments) == 2
        assert (stage_dir / "k1.pkl").exists()
        for seg in segments:
            assert (stage_dir / (seg.name + ".sha256")).exists()

    def test_warm_read_is_mmap_backed(self, tmp_path):
        DiskStageCache(tmp_path).get_or_run("deposit", "k1", _grid_value)
        warm = DiskStageCache(tmp_path)
        value, hit = warm.get_or_run("deposit", "k1", _grid_value)
        assert hit
        np.testing.assert_array_equal(value["grid"], _grid_value()["grid"])
        np.testing.assert_array_equal(value["mask"], _grid_value()["mask"])
        assert value["cell_mm"] == 0.1 and value["name"] == "plate"
        # The big arrays came back as read-only memory maps, not copies.
        assert isinstance(value["grid"], np.memmap)
        assert not value["grid"].flags.writeable
        assert warm.stats.zero_copy_hits == 1
        assert warm.stats.mmap_bytes > 0
        assert warm.stats.pickle_bytes > 0  # the header is still pickled

    def test_non_array_values_stay_plain_pickle(self, tmp_path):
        DiskStageCache(tmp_path).get_or_run("stage", "k1", lambda: "text")
        warm = DiskStageCache(tmp_path)
        value, hit = warm.get_or_run("stage", "k1", lambda: "other")
        assert hit and value == "text"
        assert list((tmp_path / "stage").glob("k1.seg*")) == []
        assert warm.stats.zero_copy_hits == 0
        assert warm.stats.pickle_bytes > 0

    def test_tampered_segment_quarantined_and_recomputed(self, tmp_path):
        DiskStageCache(tmp_path).get_or_run("deposit", "k1", _grid_value)
        seg = sorted((tmp_path / "deposit").glob("k1.seg*.npy"))[0]
        data = bytearray(seg.read_bytes())
        data[-1] ^= 0xFF
        seg.write_bytes(bytes(data))

        fresh = DiskStageCache(tmp_path)
        value, hit = fresh.get_or_run("deposit", "k1", _grid_value)
        assert not hit
        np.testing.assert_array_equal(value["grid"], _grid_value()["grid"])
        assert fresh.stats.integrity_failures == 1
        # The tampered generation moved to quarantine; the recompute
        # republished a clean one that a later instance reads verified.
        quarantined = list((tmp_path / "quarantine").glob("**/*k1.*"))
        assert any(q.name.endswith(".npy") for q in quarantined)
        later = DiskStageCache(tmp_path)
        value, hit = later.get_or_run("deposit", "k1", _grid_value)
        assert hit
        np.testing.assert_array_equal(value["grid"], _grid_value()["grid"])
        assert later.stats.integrity_failures == 0

    def test_missing_sidecar_is_an_integrity_failure(self, tmp_path):
        DiskStageCache(tmp_path).get_or_run("deposit", "k1", _grid_value)
        sidecar = sorted((tmp_path / "deposit").glob("k1.seg*.sha256"))[0]
        sidecar.unlink()
        fresh = DiskStageCache(tmp_path)
        _, hit = fresh.get_or_run("deposit", "k1", _grid_value)
        assert not hit
        assert fresh.stats.integrity_failures == 1


class TestSharedRoots:
    def test_put_get_root_across_instances(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        root = {"model": np.arange(1024, dtype=np.float64), "name": "bar"}
        assert cache.put_root("digest123", root)
        other = DiskStageCache(tmp_path)
        resolved = other.get_root("digest123")
        np.testing.assert_array_equal(resolved["model"], root["model"])
        assert resolved["name"] == "bar"

    def test_put_root_is_idempotent_and_uncounted(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        assert cache.put_root("k", "value")
        assert cache.put_root("k", "value")
        assert cache.stats.total_hits == 0
        assert cache.stats.total_misses == 0
        assert (tmp_path / ROOTS_STAGE / "k.pkl").exists()

    def test_missing_root_resolves_to_none(self, tmp_path):
        assert DiskStageCache(tmp_path).get_root("absent") is None


class TestSweepEquivalence:
    """mmap-vs-pickle and handle-vs-inline must not shift a fingerprint."""

    def test_disk_cache_sweep_matches_memory_only(
        self, protected, baseline, tmp_path
    ):
        report = ParallelSweep(
            jobs=1, cache_dir=str(tmp_path / "cache")
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert report.ok
        assert _fingerprints(report) == baseline
        # Serial runs have no worker pipe to account for.
        assert report.transport is None

        # The warm repeat is all verified hits plus persisted verdicts:
        # it reproduces every fingerprint bit-for-bit without reading a
        # single grid.
        warm = ParallelSweep(
            jobs=1, cache_dir=str(tmp_path / "cache")
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert warm.ok
        assert _fingerprints(warm) == baseline
        assert warm.stats.total_misses == 0
        assert warm.stats.zero_copy_hits == 0
        assert warm.stats.mmap_bytes == 0

        # Another assess callable misses the verdict memo, so finalize
        # must materialize the grids: from mmap-backed segment reads,
        # with the same fingerprints.
        reassessed = _sweep(
            protected, tmp_path / "cache", assess=reassess_print
        )
        assert reassessed.ok
        assert _fingerprints(reassessed) == baseline
        assert _verdicts(reassessed) == _verdicts(warm)
        assert reassessed.stats.total_misses == 0
        assert reassessed.stats.zero_copy_hits > 0
        assert reassessed.stats.mmap_bytes > reassessed.stats.pickle_bytes

    def test_parallel_handle_passing_matches_serial(
        self, protected, baseline, tmp_path
    ):
        report = ParallelSweep(
            jobs=2, cache_dir=str(tmp_path / "cache")
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert report.ok
        assert _fingerprints(report) == baseline
        transport = report.transport
        assert transport is not None and transport.tasks > 0
        # Every task carried a model handle, never the model inline,
        # and nothing the size of a voxel grid crossed the pipe.
        assert transport.inline_tasks == 0
        assert transport.handle_tasks == transport.tasks
        assert transport.max_task_bytes <= 65536


def _flip_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestHitFirstLookup:
    """A node hit verifies its entry but decodes nothing."""

    def test_hit_first_verifies_without_decoding(self, tmp_path):
        DiskStageCache(tmp_path).get_or_run("deposit", "k1", _grid_value)
        warm = DiskStageCache(tmp_path)
        prepared = []
        value, hit = warm.get_or_run(
            "deposit", "k1", _grid_value, prepare=lambda: prepared.append(1)
        )
        assert hit and value is None and prepared == []
        assert warm.disk_hits == {"deposit": 1}
        assert warm.stats.zero_copy_hits == 0
        assert warm.stats.mmap_bytes == 0
        assert warm.stats.pickle_bytes == 0
        assert len(warm) == 0  # nothing was read into the memory tier

    def test_verified_key_is_answered_from_memory(self, tmp_path):
        DiskStageCache(tmp_path).get_or_run("deposit", "k1", _grid_value)
        warm = DiskStageCache(tmp_path)
        warm.get_or_run("deposit", "k1", _grid_value, prepare=lambda: None)
        # A later bit flip is not re-hashed by a hit-first lookup of a
        # key this process already verified ...
        _flip_byte(sorted((tmp_path / "deposit").glob("k1.seg*.npy"))[0])
        _, hit = warm.get_or_run(
            "deposit", "k1", _grid_value, prepare=lambda: None
        )
        assert hit and warm.disk_hits == {"deposit": 1}
        assert warm.stats.integrity_failures == 0
        # ... but a read that decodes the entry still verifies it.
        _, found = warm.fetch("deposit", "k1")
        assert not found
        assert warm.stats.integrity_failures == 1

    def test_miss_runs_prepare_outside_the_stage_timer(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        order = []
        value, hit = cache.get_or_run(
            "stage", "k1", lambda: order.append("run") or "v",
            prepare=lambda: order.append("prepare"),
        )
        assert (value, hit) == ("v", False)
        assert order == ["prepare", "run"]
        assert cache.stats.stage("stage").misses == 1

    def test_tampered_entry_fails_the_hit_first_lookup(self, tmp_path):
        DiskStageCache(tmp_path).get_or_run("deposit", "k1", _grid_value)
        _flip_byte(sorted((tmp_path / "deposit").glob("k1.seg*.npy"))[-1])
        fresh = DiskStageCache(tmp_path)
        prepared = []
        value, hit = fresh.get_or_run(
            "deposit", "k1", _grid_value, prepare=lambda: prepared.append(1)
        )
        assert not hit and prepared == [1]
        np.testing.assert_array_equal(value["grid"], _grid_value()["grid"])
        assert fresh.stats.integrity_failures == 1
        assert list((tmp_path / "quarantine").glob("deposit-k1.seg*.npy"))

    def test_missing_segment_fails_the_hit_first_lookup(self, tmp_path):
        DiskStageCache(tmp_path).get_or_run("deposit", "k1", _grid_value)
        for path in (tmp_path / "deposit").glob("k1.seg1.*"):
            path.unlink()
        fresh = DiskStageCache(tmp_path)
        _, hit = fresh.get_or_run(
            "deposit", "k1", _grid_value, prepare=lambda: None
        )
        assert not hit
        assert fresh.stats.integrity_failures == 1

    def test_verified_keys_are_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(DiskStageCache, "VERIFIED_MAX_ENTRIES", 3)
        writer = DiskStageCache(tmp_path)
        for i in range(7):
            writer.get_or_run("stage", f"k{i}", lambda i=i: i)
        warm = DiskStageCache(tmp_path)
        for i in range(7):
            _, hit = warm.get_or_run(
                "stage", f"k{i}", lambda: None, prepare=lambda: None
            )
            assert hit
        assert list(warm._verified) == ["k4", "k5", "k6"]


class TestModelMemoBound:
    def test_resolve_model_keeps_at_most_the_bound(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        n = scheduler.MODEL_MEMO_MAX_ENTRIES + 3
        for i in range(n):
            assert cache.put_root(f"root{i}", {"model": i})
        scheduler._MODEL_MEMO.clear()
        try:
            for i in range(n):
                model = scheduler._resolve_model(("handle", f"root{i}"), cache)
                assert model == {"model": i}
            assert len(scheduler._MODEL_MEMO) == scheduler.MODEL_MEMO_MAX_ENTRIES
            # Least recently used roots went first.
            assert "root0" not in scheduler._MODEL_MEMO
            assert f"root{n - 1}" in scheduler._MODEL_MEMO
        finally:
            scheduler._MODEL_MEMO.clear()


class TestWarmRerun:
    """A fully warm rerun: one verified lookup per node, one verified
    verdict read per cell - and tampering still caught on the way."""

    def test_one_cache_get_span_per_node(self, protected, baseline, tmp_path):
        assert _sweep(protected, tmp_path / "cache").ok
        tracer = obs.install(Tracer())
        try:
            warm = _sweep(protected, tmp_path / "cache", jobs=2)
        finally:
            obs.uninstall()
        assert warm.ok and _fingerprints(warm) == baseline
        spans = [s.to_dict() for s in tracer.drain()]
        gets = [row for row in spans if row["name"] == "cache.get"]
        assert len(gets) == warm.scheduler.total_executed
        totals = export.stage_totals(spans)
        for stage, counters in warm.scheduler.stages.items():
            assert totals[stage]["hits"] == counters.executed, stage
            assert totals[stage]["misses"] == 0, stage
        assert all(row["attrs"]["hit"] for row in gets)
        # Only the shared model root is read; no stage input is.
        fetched = {
            row["attrs"]["stage"] for row in spans
            if row["name"] == "cache.fetch"
        }
        assert fetched <= {ROOTS_STAGE}

    def test_tampered_verdict_quarantined_and_recomputed(
        self, protected, baseline, tmp_path
    ):
        cold = _sweep(protected, tmp_path / "cache")
        assert cold.ok
        verdicts = sorted((tmp_path / "cache" / DERIVED_STAGE).glob("*.pkl"))
        assert len(verdicts) == len(cold.cells)
        _flip_byte(verdicts[0])

        rerun = _sweep(protected, tmp_path / "cache")
        assert rerun.ok
        assert _fingerprints(rerun) == baseline
        assert _verdicts(rerun) == _verdicts(cold)
        assert rerun.stats.total_misses == 0
        assert rerun.stats.integrity_failures == 1
        quarantined = list((tmp_path / "cache" / "quarantine").iterdir())
        assert any(
            q.name == f"{DERIVED_STAGE}-{verdicts[0].name}" for q in quarantined
        )
        # The recomputed verdict was republished and reads back clean.
        again = _sweep(protected, tmp_path / "cache")
        assert _verdicts(again) == _verdicts(cold)
        assert again.stats.integrity_failures == 0

    @pytest.mark.parametrize("stage, pattern", [
        ("slice", "*.pkl"),
        ("deposit", "*.seg0.npy"),
    ])
    def test_tampered_entry_caught_by_its_own_node(
        self, protected, baseline, tmp_path, stage, pattern
    ):
        assert _sweep(protected, tmp_path / "cache").ok
        entry = sorted((tmp_path / "cache" / stage).glob(pattern))[0]
        _flip_byte(entry)

        rerun = _sweep(protected, tmp_path / "cache")
        assert rerun.ok
        assert _fingerprints(rerun) == baseline
        assert rerun.stats.integrity_failures == 1
        # Exactly the tampered node recomputed; every other node and
        # both verdicts were still hits.
        assert rerun.stats.stages[stage].misses == 1
        assert rerun.stats.total_misses == 1
        assert any(
            q.name == f"{stage}-{entry.name}"
            for q in (tmp_path / "cache" / "quarantine").iterdir()
        )


@chaos
class TestChaosDataPlane:
    def test_worker_death_under_handle_passing(
        self, protected, baseline, tmp_path
    ):
        """A killed worker loses its in-flight handles, not correctness."""
        faults.install(FaultPlan(
            (FaultSpec("worker", "kill-worker", times=1),),
            scratch=str(tmp_path / "scratch"),
        ))
        report = ParallelSweep(
            jobs=2, cache_dir=str(tmp_path / "cache")
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert report.ok
        assert report.pool_rebuilds >= 1
        assert _fingerprints(report) == baseline
        # Transport accounting survives the rebuild (the lost task's
        # bytes are dropped with its future, never double-counted).
        assert report.transport is not None
        assert report.transport.inline_tasks == 0
