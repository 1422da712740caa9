"""Generational merging, sharded manifests, and range-lease workers.

The scale-envelope contract: merge folds any pile of small segments and
delta-log publications into one fresh generation without changing a single
record byte; a merge killed at *any* filesystem boundary leaves every key
reading identically and a re-merge converges; range leases change only how
work is claimed, never what is produced.
"""

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from repro.sweeps import MergeReport, ResultTable, SweepStore, range_blocks
from repro.sweeps import segments as seg
from repro.sweeps.distributed import run_distributed, run_worker
from repro.sweeps.runner import plan_sweep
from repro.sweeps.store import SCHEMA_VERSION


def record_for(i: int) -> tuple[str, dict]:
    """One synthetic but schema-complete sweep record."""
    key = hashlib.sha256(f"mergerec{i}".encode()).hexdigest()
    return key, {
        "scenario": {
            "benchmark": "ADD" if i % 2 else "QAOA",
            "technique": ("parallax", "graphine", "eldi")[i % 3],
            "shots": 100,
            "seed": 1000 + i,
            "spec_name": "quera_aquila",
            "spec_overrides": {"cz_error": 0.001 * (1 + i % 4)},
            "noise": {"include_readout": bool(i % 2)},
            "fingerprints": {"circuit": "c" * 8, "spec": "s" * 8, "config": "g" * 8},
        },
        "result": {
            "num_cz": 10 + i, "num_u3": 5, "num_ccz": 0, "num_swaps": 1,
            "num_moves": 2, "trap_change_events": 0, "num_layers": 4,
            "runtime_us": 12.5 + i,
        },
        "outcome": {
            "shots": 100, "successes": 90 - i, "gate_failures": 5,
            "movement_failures": 3, "decoherence_failures": 1,
            "readout_failures": 1 + i, "success_rate": (90 - i) / 100.0,
            "stderr": 0.03,
        },
        "analytic_success": 0.9 - 0.01 * i,
    }


def generational_store(directory, n=12, chunks=3) -> tuple[SweepStore, list[str]]:
    """A store compacted in ``chunks`` passes: one checkpoint generation
    plus ``chunks - 1`` delta-log publications on top of it."""
    store = SweepStore(directory)
    keys = []
    for i in range(n):
        key, record = record_for(i)
        store.put(key, record)
        keys.append(key)
    size = (n + chunks - 1) // chunks
    for start in range(0, n, size):
        # Fresh instances, like the sealing workers that produced it.
        SweepStore(directory).compact(keys=keys[start : start + size])
    return SweepStore(directory), keys


def snapshot(directory) -> dict:
    """key -> record for every readable record, warnings suppressed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {r["key"]: r for r in SweepStore(directory).records()}


def segment_names(directory) -> list[str]:
    return sorted(p.name for p in Path(directory).glob("segment-*.seg"))


class TestMerge:
    def test_merge_round_trip_preserves_records_exactly(self, tmp_path):
        store, keys = generational_store(tmp_path / "s")
        before = snapshot(tmp_path / "s")
        csv_before = ResultTable.from_store(store).to_csv()
        assert len(segment_names(tmp_path / "s")) == 3

        report = SweepStore(tmp_path / "s").merge()
        assert report.sealed == 0
        assert report.merged == 12
        assert report.segments == 1
        assert report.generation == 2  # checkpoint was generation 1
        assert report.gc_segments == 3  # the superseded small segments

        assert segment_names(tmp_path / "s") == ["segment-g0002-000001.seg"]
        assert snapshot(tmp_path / "s") == before
        merged = SweepStore(tmp_path / "s")
        assert ResultTable.from_store(merged).to_csv() == csv_before
        for key in keys:
            assert merged.get(key) == before[key]
        stats = merged.stats()
        assert (stats.generation, stats.deltas, stats.segments) == (2, 0, 1)

    def test_merge_idempotent(self, tmp_path):
        generational_store(tmp_path / "s")
        SweepStore(tmp_path / "s").merge()
        path = tmp_path / "s" / segment_names(tmp_path / "s")[0]
        bytes_before = path.read_bytes()
        again = SweepStore(tmp_path / "s").merge()
        assert again.merged == 0 and again.segments == 0
        assert again.gc_segments == 0 and again.gc_manifest == 0
        assert again.generation == 2  # unchanged
        assert path.read_bytes() == bytes_before

    def test_merge_chunks_by_target_records(self, tmp_path):
        generational_store(tmp_path / "s")
        report = SweepStore(tmp_path / "s").merge(target_records=5)
        assert report.segments == 3  # ceil(12 / 5)
        names = segment_names(tmp_path / "s")
        assert len(names) == 3
        assert all(seg.segment_generation(name) == 2 for name in names)
        # Key order spans the segments globally, like a single-pass seal.
        ordered = [r["key"] for r in SweepStore(tmp_path / "s").records()]
        assert ordered == sorted(ordered)

    def test_merge_seals_loose_records_first(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        keys = []
        for i in range(6):
            key, record = record_for(i)
            store.put(key, record)
            keys.append(key)
        before = snapshot(tmp_path / "s")
        report = store.merge()
        assert report.sealed == 6 and report.merged == 6
        assert snapshot(tmp_path / "s") == before
        stats = SweepStore(tmp_path / "s").stats()
        assert (stats.loose, stats.sealed) == (0, 6)

    def test_merge_empty_store(self, tmp_path):
        report = SweepStore(tmp_path / "s").merge()
        assert report == MergeReport(
            sealed=0, merged=0, segments=0, generation=0,
            gc_segments=0, gc_manifest=0,
        )

    def test_merge_rejects_bad_target(self, tmp_path):
        with pytest.raises(ValueError, match="target_records"):
            SweepStore(tmp_path / "s").merge(target_records=-1)

    def test_merge_respects_held_lock(self, tmp_path):
        generational_store(tmp_path / "s")
        (tmp_path / "s" / "COMPACT.lock").write_text("12345", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="another compaction"):
            report = SweepStore(tmp_path / "s").merge()
        assert report.merged == 0
        assert len(segment_names(tmp_path / "s")) == 3  # nothing touched

    def test_merge_refuses_corrupt_root(self, tmp_path):
        generational_store(tmp_path / "s")
        (tmp_path / "s" / seg.MANIFEST_NAME).write_text("{broken", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="refusing to merge"):
            report = SweepStore(tmp_path / "s").merge()
        assert report.merged == 0 and report.gc_segments == 0
        assert len(segment_names(tmp_path / "s")) == 3  # GC never ran

    def test_merge_refuses_foreign_generation_root(self, tmp_path):
        # Merging over an older engine's manifest would garbage-collect
        # data this engine cannot re-read; refuse the whole store.
        store, _ = generational_store(tmp_path / "s")
        manifest = seg.load_manifest(tmp_path / "s")
        stale = seg.Manifest(
            entries=manifest.entries,
            segments=manifest.segments,
            schema_version=SCHEMA_VERSION,
            engine_version="0.0.1",
            generation=manifest.generation,
        )
        assert seg.write_manifest(tmp_path / "s", stale)
        with pytest.warns(RuntimeWarning, match="refusing to merge"):
            report = SweepStore(tmp_path / "s").merge()
        assert report.merged == 0
        assert len(segment_names(tmp_path / "s")) == 3

    def test_merge_gc_collects_orphans_without_rewrite(self, tmp_path):
        # A merge killed after its checkpoint leaves superseded files; the
        # re-merge has nothing to rewrite but still collects them.
        generational_store(tmp_path / "s")
        SweepStore(tmp_path / "s").merge()
        records = sorted(snapshot(tmp_path / "s").values(), key=lambda r: r["key"])
        assert seg.write_segment(tmp_path / "s", records) is not None  # orphan
        report = SweepStore(tmp_path / "s").merge()
        assert report.merged == 0 and report.gc_segments == 1
        assert segment_names(tmp_path / "s") == ["segment-g0002-000001.seg"]

    def test_summary_line_contract(self, tmp_path):
        generational_store(tmp_path / "s")
        line = SweepStore(tmp_path / "s").merge().summary_line
        assert line.startswith("MERGE sealed=0 merged=12 segments=1 ")
        assert "generation=2" in line and "gc_segments=3" in line


class TestShardedManifest:
    def test_publish_appends_delta_without_touching_root(self, tmp_path):
        # The O(delta) publication path: after the checkpoint, sealing new
        # records must append to the delta log, not rewrite the root.
        store = SweepStore(tmp_path / "s")
        keys = []
        for i in range(8):
            key, record = record_for(i)
            store.put(key, record)
            keys.append(key)
        SweepStore(tmp_path / "s").compact(keys=keys[:4])  # checkpoint
        root = tmp_path / "s" / seg.MANIFEST_NAME
        root_bytes = root.read_bytes()
        SweepStore(tmp_path / "s").compact(keys=keys[4:])  # delta append
        assert root.read_bytes() == root_bytes
        delta = tmp_path / "s" / seg.MANIFEST_DIR_NAME / seg.delta_log_name(1)
        assert delta.read_bytes().count(b"\n") == 1
        fresh = SweepStore(tmp_path / "s")
        assert fresh.stats().deltas == 1
        assert len(list(fresh.records())) == 8
        for key in keys:
            assert fresh.get(key) is not None

    def test_delta_replay_counts(self, tmp_path):
        store, _ = generational_store(tmp_path / "s", n=12, chunks=3)
        manifest = SweepStore(tmp_path / "s").manifest()
        assert manifest.generation == 1
        assert manifest.delta_records == 2
        assert len(manifest.entries) == 12

    def test_torn_delta_tail_reads_prefix_then_heals(self, tmp_path):
        store, keys = generational_store(tmp_path / "s")
        delta = tmp_path / "s" / seg.MANIFEST_DIR_NAME / seg.delta_log_name(1)
        with open(delta, "ab") as handle:
            handle.write(b"D 0123456789abcdef {torn-mid-app")  # no newline
        fresh = SweepStore(tmp_path / "s")
        with pytest.warns(RuntimeWarning, match="torn"):
            assert len(list(fresh.records())) == 12  # intact prefix survives
        # The next publication repairs the framing: the torn bytes become
        # one skippable bad line and the new segment lands after them.
        key, record = record_for(100)
        later = SweepStore(tmp_path / "s")
        later.put(key, record)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            later.compact()
            healed = SweepStore(tmp_path / "s")
            assert len(list(healed.records())) == 13
            assert healed.get(key) is not None

    def test_corrupt_delta_line_drops_only_that_publication(self, tmp_path):
        generational_store(tmp_path / "s")
        delta = tmp_path / "s" / seg.MANIFEST_DIR_NAME / seg.delta_log_name(1)
        lines = delta.read_bytes().split(b"\n")
        lines[0] = lines[0][:-10] + b"X" * 10  # damage the first line only
        delta.write_bytes(b"\n".join(lines))
        fresh = SweepStore(tmp_path / "s")
        with pytest.warns(RuntimeWarning, match="delta"):
            kept = list(fresh.records())
        # The checkpointed chunk and the intact second publication survive.
        assert 0 < len(kept) < 12
        assert fresh.manifest().delta_records == 1

    def test_corrupt_shard_drops_only_that_shards_lookups(self, tmp_path):
        _, keys = generational_store(tmp_path / "s")
        SweepStore(tmp_path / "s").merge()
        manifest_dir = tmp_path / "s" / seg.MANIFEST_DIR_NAME
        shards = sorted(manifest_dir.glob("shard-*.json"))
        assert len(shards) > 1  # sha256 keys spread over several shards
        shards[0].write_bytes(b"{damaged")
        sid = shards[0].stem.rsplit("-", 1)[1]
        dropped = [k for k in keys if seg.shard_id(k) == sid]
        assert dropped  # the damaged shard indexed someone
        fresh = SweepStore(tmp_path / "s")
        with pytest.warns(RuntimeWarning, match="shard"):
            first = fresh.get(keys[0])
        assert (first is None) == (keys[0] in dropped)
        for key in keys[1:]:
            assert (fresh.get(key) is None) == (key in dropped)

    def test_unsupported_manifest_version_warns(self, tmp_path):
        for version in (1, 99):
            directory = tmp_path / f"v{version}"
            generational_store(directory)
            set_root_field(directory, "manifest_version", version)
            with pytest.warns(RuntimeWarning, match="unsupported version"):
                assert list(SweepStore(directory).records()) == []

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("manifest_version", 1),
            ("manifest_version", 99),
            ("engine_version", "0.0.1"),
            ("schema_version", SCHEMA_VERSION + 1),
        ],
        ids=["1", "99", "foreign-engine", "foreign-schema"],
    )
    def test_compact_refuses_unsupported_root(self, tmp_path, field, value):
        # Checkpointing over a root this engine cannot read, or one of
        # another engine or schema generation, would orphan every segment
        # it indexes, and the next merge would delete them.
        generational_store(tmp_path / "s")
        original = read_root_field(tmp_path / "s", field)
        set_root_field(tmp_path / "s", field, value)
        key, record = record_for(100)
        store = SweepStore(tmp_path / "s")
        store.put(key, record)
        before = packed_files(tmp_path / "s")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = store.compact()
        refusals = [w for w in caught if "refusing to compact" in str(w.message)]
        assert len(refusals) == 1
        assert report.sealed == 0 and report.segment is None
        assert store.path(key).exists()
        assert packed_files(tmp_path / "s") == before
        with pytest.warns(RuntimeWarning, match="refusing to merge"):
            merged = SweepStore(tmp_path / "s").merge()
        assert merged.gc_segments == 0 and merged.gc_manifest == 0
        assert packed_files(tmp_path / "s") == before
        set_root_field(tmp_path / "s", field, original)
        assert len(snapshot(tmp_path / "s")) == 13

    def test_shard_id_is_total(self):
        for key in ("0" * 64, "f" * 64, "not-hex-at-all", ""):
            assert seg.shard_id(key) in seg.SHARD_IDS

    def test_segment_generation_parsing(self):
        assert seg.segment_generation("segment-000001.seg") == 0
        assert seg.segment_generation("segment-g0002-000001.seg") == 2
        assert seg.segment_generation("segment-g0041-000137.seg") == 41


def read_root_field(directory, field):
    root = Path(directory) / seg.MANIFEST_NAME
    return json.loads(root.read_text(encoding="utf-8"))[field]


def set_root_field(directory, field, value) -> None:
    """Rewrite one field of the root in place."""
    root = Path(directory) / seg.MANIFEST_NAME
    data = json.loads(root.read_text(encoding="utf-8"))
    data[field] = value
    root.write_text(json.dumps(data), encoding="utf-8")


def packed_files(directory) -> dict:
    """Relative path -> bytes of the root, manifest files, and segments."""
    directory = Path(directory)
    paths = [directory / seg.MANIFEST_NAME]
    paths += directory.glob("segment-*")
    paths += (directory / seg.MANIFEST_DIR_NAME).iterdir()
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(paths)
    }


class Boom(Exception):
    """Injected crash: not an OSError, so no degraded path swallows it."""


class TestMergeCrashSafety:
    """Kill merge at every filesystem write boundary and at GC unlink
    points; after each crash every key must read identically and a
    re-merge must converge to the clean-merge state."""

    def _reference(self, tmp_path):
        generational_store(tmp_path / "ref")
        SweepStore(tmp_path / "ref").merge()
        return snapshot(tmp_path / "ref")

    def _assert_converges(self, directory, reference):
        assert snapshot(directory) == reference  # reads survive the crash
        report = SweepStore(directory).merge()
        assert snapshot(directory) == reference
        final = SweepStore(directory)
        stats = final.stats()
        assert stats.deltas == 0
        names = segment_names(directory)
        assert names and all(
            seg.segment_generation(name) == stats.generation for name in names
        )
        again = SweepStore(directory).merge()
        assert again.merged == 0
        assert again.gc_segments == 0 and again.gc_manifest == 0

    def test_crash_at_every_manifest_write(self, tmp_path, monkeypatch):
        reference = self._reference(tmp_path)

        # Count the write boundaries one clean merge crosses.
        counter = {"n": 0}
        real = seg.atomic_write_bytes

        def counting(path, data):
            counter["n"] += 1
            return real(path, data)

        generational_store(tmp_path / "count")
        monkeypatch.setattr(seg, "atomic_write_bytes", counting)
        SweepStore(tmp_path / "count").merge()
        monkeypatch.setattr(seg, "atomic_write_bytes", real)
        total = counter["n"]
        assert total >= 3  # at least segment + one shard + root

        for crash_at in range(1, total + 1):
            directory = tmp_path / f"crash{crash_at}"
            generational_store(directory)
            state = {"n": 0}

            def injected(path, data, _state=state, _crash_at=crash_at):
                _state["n"] += 1
                if _state["n"] == _crash_at:
                    raise Boom(f"injected crash at write #{_crash_at}")
                return real(path, data)

            monkeypatch.setattr(seg, "atomic_write_bytes", injected)
            with pytest.raises(Boom):
                SweepStore(directory).merge()
            monkeypatch.setattr(seg, "atomic_write_bytes", real)
            self._assert_converges(directory, reference)

    def test_crash_at_gc_unlink_points(self, tmp_path, monkeypatch):
        reference = self._reference(tmp_path)
        real_unlink = Path.unlink

        for crash_at in (1, 2, 3):
            directory = tmp_path / f"gc{crash_at}"
            generational_store(directory)
            state = {"n": 0}

            def injected(self, missing_ok=False, _state=state,
                         _crash_at=crash_at, _dir=directory):
                is_gc_target = _dir in self.parents and (
                    self.name.endswith(".seg")
                    or self.parent.name == seg.MANIFEST_DIR_NAME
                )
                if is_gc_target:
                    _state["n"] += 1
                    if _state["n"] == _crash_at:
                        raise Boom(f"injected crash at unlink #{_crash_at}")
                return real_unlink(self, missing_ok=missing_ok)

            monkeypatch.setattr(Path, "unlink", injected)
            with pytest.raises(Boom):
                SweepStore(directory).merge()
            monkeypatch.setattr(Path, "unlink", real_unlink)
            self._assert_converges(directory, reference)


def tiny_grid(**kwargs):
    from repro.sweeps import SweepGrid

    defaults = dict(
        benchmarks=("ADD",),
        techniques=("parallax", "graphine"),
        spec_axes={"cz_error": (0.002, 0.004)},
        shots=120,
        base_seed=5,
    )
    defaults.update(kwargs)
    return SweepGrid(**defaults)


def store_digest(directory) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).glob("*.json"))
    }


class TestRangeBlocks:
    KEYS = [hashlib.sha256(f"rb{i}".encode()).hexdigest() for i in range(10)]

    def test_partition_covers_every_index_once(self):
        blocks = range_blocks(self.KEYS, 3)
        covered = sorted(i for _, indices in blocks for i in indices)
        assert covered == list(range(10))
        assert [len(indices) for _, indices in blocks] == [3, 3, 3, 1]

    def test_blocks_follow_key_sorted_order(self):
        blocks = range_blocks(self.KEYS, 4)
        flat = [self.KEYS[i] for _, indices in blocks for i in indices]
        assert flat == sorted(self.KEYS)

    def test_lease_range_one_names_are_keys(self):
        blocks = range_blocks(self.KEYS, 1)
        assert [name for name, _ in blocks] == sorted(self.KEYS)
        assert all(len(indices) == 1 for _, indices in blocks)

    def test_names_deterministic_under_input_permutation(self):
        # Every worker derives block names from its own plan expansion;
        # the same key *set* must yield the same named groups.
        shuffled = list(reversed(self.KEYS))
        original = {
            name: [self.KEYS[i] for i in indices]
            for name, indices in range_blocks(self.KEYS, 3)
        }
        permuted = {
            name: [shuffled[i] for i in indices]
            for name, indices in range_blocks(shuffled, 3)
        }
        assert original == permuted

    def test_rejects_bad_lease_range(self):
        with pytest.raises(ValueError):
            range_blocks(self.KEYS, 0)


class TestRangeLeaseWorkers:
    def test_two_workers_byte_identical_to_single_process(self, tmp_path):
        from repro.sweeps import run_sweep

        grid = tiny_grid()
        reference = run_sweep(grid, SweepStore(tmp_path / "ref"))
        report = run_distributed(
            grid, SweepStore(tmp_path / "d"), workers=2, lease_range=2
        )
        assert report.computed == grid.size
        assert report.records == reference.records
        assert store_digest(tmp_path / "ref") == store_digest(tmp_path / "d")

    def test_ranges_counted_in_summary_line(self, tmp_path):
        grid = tiny_grid()
        report = run_worker(
            grid, SweepStore(tmp_path / "s"), owner="me", lease_range=2
        )
        assert report.computed == grid.size
        assert report.ranges == 2  # 4 scenarios / 2 per lease
        assert " ranges=2" in report.summary_line

    def test_crashed_range_lease_reclaimed(self, tmp_path):
        import os
        import time

        from repro.sweeps import run_sweep

        grid = tiny_grid()
        run_sweep(grid, SweepStore(tmp_path / "ref"))
        store = SweepStore(tmp_path / "s")
        plan = plan_sweep(grid)
        name, _ = range_blocks(plan.keys, 2)[0]
        assert store.acquire_lease(name, "crashed") == "acquired"
        past = time.time() - 3600.0
        os.utime(store.lease_path(name), (past, past))

        report = run_worker(
            grid, store, owner="heir", ttl_s=60.0, lease_range=2
        )
        assert report.computed == grid.size
        assert report.reclaimed == 1
        assert store_digest(tmp_path / "ref") == store_digest(tmp_path / "s")
        assert not store.lease_dir.exists()


class TestLeaseKeyCollisionRegression:
    # Lease files were once named by key[:40]; two keys sharing a 40-char
    # prefix then shared one lease file, serializing (or corrupting) two
    # unrelated claims.  Lease paths must use the full key.
    PREFIX = "a" * 40

    def test_prefix_sharing_keys_lease_independently(self, tmp_path):
        k1 = self.PREFIX + "0" * 24
        k2 = self.PREFIX + "1" * 24
        store = SweepStore(tmp_path / "s")
        assert store.lease_path(k1) != store.lease_path(k2)
        assert store.acquire_lease(k1, "w1") == "acquired"
        assert store.acquire_lease(k2, "w2") == "acquired"
        assert store.read_lease(k1)["owner"] == "w1"
        assert store.read_lease(k2)["owner"] == "w2"
        assert store.release_lease(k1, "w1")
        assert store.read_lease(k2)["owner"] == "w2"  # untouched


class TestMergeStatsCLI:
    def _filled(self, directory, n=6):
        store = SweepStore(directory)
        for i in range(n):
            key, record = record_for(i)
            store.put(key, record)
        return store

    def test_merge_subcommand(self, tmp_path, capsys):
        from repro.sweeps.__main__ import main

        self._filled(tmp_path / "s")
        assert main(["merge", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "MERGE sealed=6 merged=6 segments=1" in out
        assert main(["merge", str(tmp_path / "s")]) == 0
        assert "MERGE sealed=0 merged=0" in capsys.readouterr().out

    def test_stats_subcommand(self, tmp_path, capsys):
        from repro.sweeps.__main__ import main

        store = self._filled(tmp_path / "s")
        assert main(["stats", str(tmp_path / "s")]) == 0
        assert "STATS loose=6 sealed=0 segments=0" in capsys.readouterr().out
        store.merge()
        store.acquire_lease("f" * 64, "w1")
        assert main(["stats", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "STATS loose=0 sealed=6 segments=1" in out
        assert "leases=1" in out

    def test_compact_line_reports_generation(self, tmp_path, capsys):
        from repro.sweeps.__main__ import main

        self._filled(tmp_path / "s")
        assert main(["compact", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "COMPACT sealed=6 deduped=0 skipped=0" in out
        assert "generation=1 deltas=0" in out

    def test_merge_flag_requires_store(self):
        from repro.sweeps.__main__ import main

        with pytest.raises(SystemExit):
            main(["--merge"])

    def test_bad_lease_range_rejected(self):
        from repro.sweeps.__main__ import main

        with pytest.raises(SystemExit):
            main(["--lease-range", "0"])
        with pytest.raises(SystemExit):
            main(["worker", "x", "--lease-range", "0"])

    def test_merge_bad_target_rejected(self, tmp_path):
        from repro.sweeps.__main__ import main

        with pytest.raises(SystemExit):
            main(["merge", str(tmp_path / "s"), "--target-records", "0"])
