"""Packed segment backend: integrity, compaction, and analysis parity.

Every failure mode must degrade to *missing-with-warning* -- truncated
tails, checksum mismatches, manifests pointing at vanished segments,
compactions killed at any point -- because a wedged ``--resume`` or a
crashing ``analyze`` loses more data than the damaged records ever held.
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro.core.serialize import short_checksum
from repro.sweeps import CompactionReport, ResultTable, SweepStore
from repro.sweeps import segments as seg
from repro.sweeps.engine import EvalTask, evaluate_tasks
from repro.sweeps.store import SCHEMA_VERSION


def record_for(i: int) -> tuple[str, dict]:
    """One synthetic but schema-complete sweep record."""
    key = hashlib.sha256(f"segrec{i}".encode()).hexdigest()
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


def filled_store(directory, n=8) -> tuple[SweepStore, list[str]]:
    store = SweepStore(directory)
    keys = []
    for i in range(n):
        key, record = record_for(i)
        store.put(key, record)
        keys.append(key)
    return store, keys


def segment_files(directory):
    return sorted(directory.glob("segment-*.seg"))


class TestCompaction:
    def test_round_trip_preserves_records_exactly(self, tmp_path):
        store, keys = filled_store(tmp_path / "s")
        before = list(store.records())
        report = store.compact()
        assert report == CompactionReport(
            sealed=8, deduped=0, skipped=0, segment="segment-000001.seg"
        )
        packed = SweepStore(tmp_path / "s")
        assert list(packed.records()) == before
        for record in before:
            assert packed.get(record["key"]) == record
            assert record["key"] in packed
        assert len(packed) == 8

    def test_loose_files_removed_after_seal(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        store.compact()
        stats = store.stats()
        assert (stats.loose, stats.sealed, stats.segments) == (0, 8, 1)

    def test_idempotent(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        store.compact()
        again = store.compact()
        assert again.sealed == 0 and again.segment is None
        assert len(segment_files(tmp_path / "s")) == 1

    def test_partial_compaction_by_keys(self, tmp_path):
        store, keys = filled_store(tmp_path / "s")
        report = store.compact(keys=keys[:3])
        assert report.sealed == 3
        stats = store.stats()
        assert (stats.loose, stats.sealed) == (5, 3)
        # Mixed store still answers everything.
        assert len(list(store.records())) == 8

    def test_recompaction_after_kill_before_manifest_swap(self, tmp_path):
        # A compactor killed after writing its segment but before the
        # manifest swap leaves an orphan segment and every loose file; the
        # rerun seals everything into a fresh segment and never reads the
        # orphan.
        store, keys = filled_store(tmp_path / "s")
        records = sorted(
            (store.get(k) for k in keys), key=lambda r: r["key"]
        )
        assert seg.write_segment(tmp_path / "s", records) is not None  # orphan
        report = SweepStore(tmp_path / "s").compact()
        assert report.sealed == 8
        assert report.segment == "segment-000002.seg"
        assert len(list(SweepStore(tmp_path / "s").records())) == 8

    def test_recompaction_after_kill_after_manifest_swap(self, tmp_path):
        # Killed between manifest swap and loose cleanup: the next pass
        # recognises the already-sealed keys and just removes duplicates.
        store, keys = filled_store(tmp_path / "s")
        store.compact()
        _, record = record_for(0)
        store.put(keys[0], record)  # resurrect one loose duplicate
        report = SweepStore(tmp_path / "s").compact()
        assert report.sealed == 0 and report.deduped == 1
        assert not store.path(keys[0]).exists()

    def test_unreadable_loose_files_skipped_not_destroyed(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        bad = tmp_path / "s" / ("ab" * 20 + ".json")
        bad.write_text("{not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="unreadable record"):
            report = store.compact()
        assert report.sealed == 8 and report.skipped == 1
        assert bad.exists()

    def test_concurrent_writer_untouched(self, tmp_path):
        # A record written between gather and cleanup (here: simply not in
        # the keys subset) must survive compaction untouched.
        store, keys = filled_store(tmp_path / "s")
        store.compact(keys=keys[1:])
        assert store.path(keys[0]).exists()
        assert store.get(keys[0]) is not None

    def test_held_lock_skips_compaction_without_data_loss(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        (tmp_path / "s" / "COMPACT.lock").write_text("12345", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="another compaction"):
            report = store.compact()
        assert report == CompactionReport(
            sealed=0, deduped=0, skipped=0, segment=None
        )
        assert store.stats().loose == 8  # nothing touched
        assert (tmp_path / "s" / "COMPACT.lock").exists()  # not ours to break

    def test_stale_lock_is_broken(self, tmp_path):
        import os
        import time

        store, _ = filled_store(tmp_path / "s")
        lock = tmp_path / "s" / "COMPACT.lock"
        lock.write_text("12345", encoding="utf-8")
        stale = time.time() - 2 * SweepStore._LOCK_STALE_S
        os.utime(lock, (stale, stale))
        report = store.compact()
        assert report.sealed == 8
        assert not lock.exists()

    def test_keyed_compaction_parses_only_its_own_files(self, tmp_path):
        # The --seal path compacts one chunk at a time; each pass must
        # visit only the chunk's files, not re-parse the whole directory
        # (which would be quadratic over a long sweep).
        store, keys = filled_store(tmp_path / "s", n=10)
        loads = []
        original = SweepStore._load

        def counting_load(self, path):
            loads.append(path.name)
            return original(self, path)

        try:
            SweepStore._load = counting_load
            store.compact(keys=keys[:2])
        finally:
            SweepStore._load = original
        assert len(loads) == 2

    def test_foreign_generation_loose_record_not_resumed(self, tmp_path):
        # get() must apply the same generation gate as records(): a stale
        # record must be recomputed, not silently resumed into a sweep
        # that analyze will then drop it from.
        import json

        store, _ = filled_store(tmp_path / "s", n=1)
        key, record = record_for(0)
        stale = {**record, "schema_version": SCHEMA_VERSION,
                 "engine_version": "0.0.1", "key": key}
        store.path(key).write_text(json.dumps(stale), encoding="utf-8")
        fresh = SweepStore(tmp_path / "s")
        with pytest.warns(RuntimeWarning, match="engine '0.0.1'"):
            assert fresh.get(key) is None

    def test_clear_removes_segments_and_manifest(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        store.compact()
        store.clear()
        assert len(store) == 0
        assert not segment_files(tmp_path / "s")
        assert not (tmp_path / "s" / seg.MANIFEST_NAME).exists()


class TestIntegrity:
    def test_truncated_tail_mid_record(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        store.compact()
        path = segment_files(tmp_path / "s")[0]
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        fresh = SweepStore(tmp_path / "s")
        with pytest.warns(RuntimeWarning, match="truncated"):
            kept = list(fresh.records())
        assert 0 < len(kept) < 8  # the intact prefix survives

    def test_truncated_tail_key_reads_missing_not_crashing(self, tmp_path):
        store, keys = filled_store(tmp_path / "s")
        store.compact()
        path = segment_files(tmp_path / "s")[0]
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        fresh = SweepStore(tmp_path / "s")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            kept_keys = {r["key"] for r in fresh.records()}
            for key in keys:
                record = fresh.get(key)
                assert (record is not None) == (key in kept_keys)

    def test_checksum_mismatch_drops_only_that_record(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        store.compact()
        path = segment_files(tmp_path / "s")[0]
        data = bytearray(path.read_bytes())
        index = data.find(b'"analytic_success"')
        data[index + 2] ^= 0x01
        path.write_bytes(bytes(data))
        fresh = SweepStore(tmp_path / "s")
        with pytest.warns(RuntimeWarning, match="checksum"):
            kept = list(fresh.records())
        assert len(kept) == 7

    def test_manifest_pointing_at_missing_segment(self, tmp_path):
        store, keys = filled_store(tmp_path / "s")
        store.compact()
        segment_files(tmp_path / "s")[0].unlink()
        fresh = SweepStore(tmp_path / "s")
        with pytest.warns(RuntimeWarning, match="missing segment"):
            assert list(fresh.records()) == []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert fresh.get(keys[0]) is None
            assert len(ResultTable.from_store(SweepStore(tmp_path / "s"))) == 0

    def test_corrupt_manifest_leaves_loose_records_readable(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        (tmp_path / "s" / seg.MANIFEST_NAME).write_text("{broken", encoding="utf-8")
        fresh = SweepStore(tmp_path / "s")
        with pytest.warns(RuntimeWarning, match="manifest"):
            assert len(list(fresh.records())) == 8

    def test_warning_fires_once_per_problem_per_store(self, tmp_path):
        store, keys = filled_store(tmp_path / "s")
        store.compact()
        segment_files(tmp_path / "s")[0].unlink()
        fresh = SweepStore(tmp_path / "s")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            list(fresh.records())
            list(fresh.records())
            fresh.get(keys[0])
            fresh.get(keys[1])
        assert len(caught) == 1

    def test_foreign_generation_manifest_skipped_whole(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        store.compact()
        manifest = seg.load_manifest(tmp_path / "s")
        stale = seg.Manifest(
            entries=manifest.entries,
            segments=manifest.segments,
            schema_version=SCHEMA_VERSION,
            engine_version="0.0.1",
        )
        assert seg.write_manifest(tmp_path / "s", stale)
        fresh = SweepStore(tmp_path / "s")
        with pytest.warns(RuntimeWarning, match="engine '0.0.1'"):
            assert list(fresh.records()) == []


class TestAnalysisParity:
    def test_csv_identical_loose_packed_mixed(self, tmp_path):
        store, keys = filled_store(tmp_path / "s", n=12)
        csv_loose = ResultTable.from_store(store).to_csv()
        store.compact(keys=keys[:6])
        csv_mixed = ResultTable.from_store(SweepStore(tmp_path / "s")).to_csv()
        SweepStore(tmp_path / "s").compact()
        csv_packed = ResultTable.from_store(SweepStore(tmp_path / "s")).to_csv()
        assert csv_mixed == csv_loose
        assert csv_packed == csv_loose

    def test_multi_segment_store_merges_in_key_order(self, tmp_path):
        store, keys = filled_store(tmp_path / "s", n=9)
        store.compact(keys=keys[:3])
        SweepStore(tmp_path / "s").compact(keys=keys[3:6])
        SweepStore(tmp_path / "s").compact()
        packed = SweepStore(tmp_path / "s")
        assert len(segment_files(tmp_path / "s")) == 3
        table = ResultTable.from_store(packed)
        assert len(table) == 9
        ordered = [r["key"] for r in packed.records()]
        assert ordered == sorted(ordered)

    def test_loose_record_wins_over_sealed_twin(self, tmp_path):
        store, keys = filled_store(tmp_path / "s")
        store.compact()
        _, record = record_for(0)
        record["analytic_success"] = 0.123456
        store.put(keys[0], record)
        fresh = SweepStore(tmp_path / "s")
        assert fresh.get(keys[0])["analytic_success"] == 0.123456
        by_key = {r["key"]: r for r in fresh.records()}
        assert by_key[keys[0]]["analytic_success"] == 0.123456
        table = ResultTable.from_store(SweepStore(tmp_path / "s"))
        assert 0.123456 in table.column("analytic_success")

    def test_fast_path_actually_engages(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        assert store.analysis_columns() is None  # loose-only: classic path
        store.compact()
        packed = SweepStore(tmp_path / "s")
        names, columns = packed.analysis_columns()
        assert "analytic_success" in names
        assert all(len(col) == 8 for col in columns)


class TestSegmentFormat:
    def test_payloads_are_canonical_store_bytes(self, tmp_path):
        # The sealed payload must be byte-identical to the loose file it
        # replaced -- that is what keeps --resume byte-for-byte exact.
        store, keys = filled_store(tmp_path / "s", n=3)
        loose_bytes = {
            key: store.path(key).read_bytes() for key in keys
        }
        store.compact()
        path = segment_files(tmp_path / "s")[0]
        data = path.read_bytes()
        found = dict(seg.iter_segment_records(data, path.name))
        from repro.core.serialize import canonical_dumps

        for key in keys:
            assert canonical_dumps(found[key]).encode() == loose_bytes[key]

    def test_segment_is_frames_and_footer_only(self, tmp_path):
        store, _ = filled_store(tmp_path / "s", n=3)
        store.compact()
        lines = segment_files(tmp_path / "s")[0].read_bytes().splitlines()
        tags = [line.split(b" ")[0] for line in lines[:1] + lines[1::2]]
        assert tags == [b"SEG", b"REC", b"REC", b"REC", b"END"]

    def test_segment_sealed_with_json_columns_still_reads(self, tmp_path):
        # Engines before the sidecar became the one columnar format
        # wrote a JSON COL block before the footer: readers skip it
        # without a warning.
        reference, _ = filled_store(tmp_path / "loose")
        expected = ResultTable.from_store(reference).to_csv()
        store, _ = filled_store(tmp_path / "s")
        store.compact()
        [segment] = segment_files(tmp_path / "s")
        data = segment.read_bytes()
        block = b'{"columns":{},"keys":[],"names":[]}'
        footer = data.rindex(b"END ")
        segment.write_bytes(
            data[:footer]
            + b"COL %d %s\n" % (len(block), short_checksum(block).encode())
            + block + b"\n" + data[footer:]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh = SweepStore(tmp_path / "s")
            assert len(list(fresh.records())) == 8
            assert ResultTable.from_store(fresh).to_csv() == expected
        # Without its sidecar the segment is read by the frame scan,
        # which must step over the COL block.
        (tmp_path / "s" / seg.sidecar_name(segment.name)).unlink()
        with pytest.warns(RuntimeWarning, match="sidecar") as caught:
            table = ResultTable.from_store(SweepStore(tmp_path / "s"))
        assert table.to_csv() == expected
        assert len(caught) == 1

    def test_segment_names_never_collide(self, tmp_path):
        store, keys = filled_store(tmp_path / "s", n=4)
        store.compact(keys=keys[:2])
        SweepStore(tmp_path / "s").compact()
        names = [p.name for p in segment_files(tmp_path / "s")]
        assert names == ["segment-000001.seg", "segment-000002.seg"]


class TestEngineSealing:
    def test_seal_during_evaluation(self, tmp_path, monkeypatch):
        # evaluate_tasks(seal=True) must leave a packed store whose records
        # equal the unsealed run's.  Sealing packs the records the sweep
        # holds in memory: no loose file is written and read back, in the
        # driver or (forked children inherit the patch) in any evaluation
        # worker.
        from repro.experiments.common import clear_caches
        from repro.sweeps import store as store_module
        from repro.sweeps.runner import run_sweep

        clear_caches()
        grid = seal_grid()
        plain = run_sweep(grid, SweepStore(tmp_path / "plain"))
        SweepStore(tmp_path / "plain").compact()
        plain_csv = ResultTable.from_store(SweepStore(tmp_path / "plain")).to_csv()

        def refuse(path, text):
            raise AssertionError(f"sealed sweep wrote loose file {path}")

        monkeypatch.setattr(store_module, "atomic_write_text", refuse)
        for eval_workers in (1, 2):
            directory = tmp_path / f"sealed{eval_workers}"
            sealed = run_sweep(
                grid, SweepStore(directory), seal=True,
                eval_workers=eval_workers,
            )
            assert sealed.records == plain.records
            assert not [p for p in directory.rglob("*") if ".tmp" in p.name]
            store = SweepStore(directory)
            assert store.stats().loose == 0
            assert store.stats().sealed == grid.size
            assert ResultTable.from_store(store).to_csv() == plain_csv
            # Resume over the packed store is a no-op.
            again = run_sweep(grid, SweepStore(directory), resume=True, seal=True)
            assert again.computed == 0 and again.resumed == grid.size
            assert again.records == plain.records
        # In-process: the one end-of-run segment, byte for byte what a
        # loose run followed by compact() writes.
        assert store_bytes(tmp_path / "sealed1") == store_bytes(tmp_path / "plain")

    def test_evaluate_tasks_seal_without_store_is_noop(self):
        assert evaluate_tasks([], store=None, seal=True) == []


def seal_grid():
    from repro.sweeps.grid import SweepGrid

    return SweepGrid(
        benchmarks=("ADD",),
        techniques=("parallax",),
        spec_axes={"cz_error": (0.002, 0.003, 0.004, 0.005)},
        shots=50,
        base_seed=7,
    )


def store_bytes(directory) -> dict:
    """Relative path -> bytes of every file in a store directory."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def odd_typed_record(i: int) -> tuple[str, dict]:
    """:func:`record_for` with field types an in-memory record may carry
    but a loose file never reads back as: tuples and NumPy scalars."""
    key, record = record_for(i)
    record["scenario"]["spec_overrides"] = {
        "cz_error": np.float64(0.001 * (1 + i % 4)),
        "window": (i, i + 1),
    }
    record["result"]["runtime_us"] = np.float64(12.5 + i)
    record["outcome"]["success_rate"] = np.float64((90 - i) / 100.0)
    record["analytic_success"] = np.float64(0.9 - 0.01 * i)
    return key, record


class TestSealFromMemory:
    def test_bytes_equal_put_then_compact(self, tmp_path):
        # Two batches: the first checkpoints generation 1, the second is
        # published through the delta log.  Segments, sidecars, shards,
        # root and delta log must all match the loose round trip.
        batches = [
            [odd_typed_record(i) for i in range(6)],
            [odd_typed_record(i) for i in range(6, 10)],
        ]
        for batch in batches:
            loose = SweepStore(tmp_path / "loose")
            for key, record in batch:
                loose.put(key, record)
            loose.compact(keys=[key for key, _ in batch])
            report = SweepStore(tmp_path / "sealed").seal(batch)
            assert report.sealed == len(batch) and report.deduped == 0
        sealed = store_bytes(tmp_path / "sealed")
        assert sealed == store_bytes(tmp_path / "loose")
        assert "manifest/delta-g0001.log" in sealed
        assert "segment-000002.cols" in sealed

    def test_sealed_keys_skipped_and_loose_twins_removed(self, tmp_path):
        store, keys = filled_store(tmp_path / "s", n=4)
        store.compact(keys=keys[:2])
        report = SweepStore(tmp_path / "s").seal(
            [record_for(i) for i in range(4)]
        )
        assert report.sealed == 2 and report.deduped == 2
        assert report.segment == "segment-000002.seg"
        fresh = SweepStore(tmp_path / "s")
        assert fresh.stats().loose == 0 and fresh.stats().sealed == 4
        for key in keys:
            assert fresh.get(key)["key"] == key
        again = SweepStore(tmp_path / "s").seal([record_for(0)])
        assert again == CompactionReport(
            sealed=0, deduped=1, skipped=0, segment=None
        )

    def test_contended_lock_falls_back_to_loose_records(self, tmp_path):
        # The loser of the compaction lock leaves its records loose,
        # exactly as put would write them -- none is lost.
        pairs = [record_for(i) for i in range(3)]
        put_store, _ = filled_store(tmp_path / "put", n=3)
        store = SweepStore(tmp_path / "s")
        (tmp_path / "s" / "COMPACT.lock").write_text("4242")
        with pytest.warns(RuntimeWarning, match="another compaction"):
            report = store.seal(pairs)
        assert report.sealed == 0 and report.segment is None
        assert segment_files(tmp_path / "s") == []
        for key, _ in pairs:
            assert (
                store.path(key).read_bytes()
                == put_store.path(key).read_bytes()
            )

    def test_foreign_root_falls_back_to_loose_records(self, tmp_path):
        store, _ = filled_store(tmp_path / "s", n=4)
        store.compact()
        manifest = seg.load_manifest(tmp_path / "s")
        assert seg.write_manifest(
            tmp_path / "s",
            seg.Manifest(
                entries=manifest.entries,
                segments=manifest.segments,
                schema_version=SCHEMA_VERSION,
                engine_version="0.0.1",
                generation=manifest.generation,
            ),
        )
        root = (tmp_path / "s" / seg.MANIFEST_NAME).read_bytes()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = SweepStore(tmp_path / "s").seal(
                [record_for(i) for i in range(4, 6)]
            )
        assert any("refusing to compact" in str(w.message) for w in caught)
        assert report.sealed == 0
        assert [p.name for p in segment_files(tmp_path / "s")] == [
            "segment-000001.seg"
        ]
        assert (tmp_path / "s" / seg.MANIFEST_NAME).read_bytes() == root
        assert len(list(SweepStore(tmp_path / "s").loose_paths())) == 2

    def test_refused_segment_write_falls_back_to_loose_records(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(seg, "write_segment", lambda *args, **kw: None)
        store = SweepStore(tmp_path / "s")
        with pytest.warns(RuntimeWarning, match="could not seal"):
            report = store.seal([record_for(i) for i in range(3)])
        assert report.sealed == 0
        fresh = SweepStore(tmp_path / "s")
        assert fresh.stats().loose == 3 and fresh.stats().sealed == 0
        for i in range(3):
            key, _ = record_for(i)
            assert fresh.get(key)["key"] == key


class TestCompactCLI:
    def test_compact_subcommand(self, tmp_path, capsys):
        from repro.sweeps.__main__ import main

        store, _ = filled_store(tmp_path / "s")
        assert main(["compact", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "COMPACT sealed=8 deduped=0 skipped=0" in out
        assert main(["compact", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "COMPACT sealed=0" in out

    def test_run_prints_stable_resume_line(self, tmp_path, capsys):
        from repro.experiments.common import clear_caches
        from repro.sweeps.__main__ import main

        clear_caches()
        args = [
            "--benchmarks", "ADD", "--techniques", "parallax",
            "--spec-axis", "cz_error=0.002,0.004", "--noise-axis",
            "include_readout=true", "--shots", "50",
            "--store", str(tmp_path / "s"), "--quiet",
        ]
        assert main(args) == 0
        assert "RESUME computed=2 resumed=0" in capsys.readouterr().out
        assert main([*args, "--resume"]) == 0
        assert "RESUME computed=0 resumed=2" in capsys.readouterr().out

    def test_seal_requires_store(self):
        from repro.sweeps.__main__ import main

        with pytest.raises(SystemExit):
            main(["--seal"])
