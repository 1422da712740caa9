"""Binary columnar sidecars: round trips, corruption blast radius,
shard-parallel merge identity, and opportunistic mid-fleet merging.

The sidecar is purely an acceleration layer, so every test here pins one
invariant: its presence, absence, or corruption may change *speed* but
never a single byte of analysis output -- the CSV a store serves must be
identical whether each segment was read through the mmap'd sidecar or
the tolerant frame scan.
"""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialize import short_checksum
from repro.sweeps import ResultTable, SweepStore
from repro.sweeps import segments as seg
from repro.sweeps.analysis import canonical_order, record_row


def record_for(i: int) -> tuple[str, dict]:
    """One synthetic but schema-complete sweep record."""
    key = hashlib.sha256(f"sidecar{i}".encode()).hexdigest()
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


def sidecar_files(directory):
    return sorted(Path(directory).glob("segment-*.cols"))


def segment_files(directory):
    return sorted(Path(directory).glob("segment-*.seg"))


def store_csv(directory) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ResultTable.from_store(SweepStore(directory)).to_csv()


def packed_digest(directory) -> dict:
    """Name -> sha256 over every packed artifact (segments + sidecars)."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for pattern in (seg.SEGMENT_PATTERN, seg.SIDECAR_PATTERN)
        for path in sorted(Path(directory).glob(pattern))
    }


class TestSidecarRoundTrip:
    def test_seal_registers_sidecar_in_manifest(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        store.compact()
        [cols_path] = sidecar_files(tmp_path / "s")
        manifest = seg.load_manifest(tmp_path / "s")
        [(name, meta)] = manifest.segments.items()
        assert seg.sidecar_name(name) == cols_path.name
        blob = cols_path.read_bytes()
        assert meta.sidecar_length == len(blob)
        assert meta.sidecar_checksum == short_checksum(blob)
        assert blob.startswith(b"COLS reprocols 1\n")

    def test_sidecar_columns_match_record_rows_exactly(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        store.compact()
        directory = tmp_path / "s"
        manifest = seg.load_manifest(directory)
        [(name, meta)] = manifest.segments.items()
        side = seg.read_segment_sidecar(
            directory / seg.sidecar_name(name), meta
        )
        assert side is not None
        records = list(SweepStore(directory).records())
        rows = [record_row(record) for record in records]
        assert seg.materialize_column(side["keys"]) == [
            record["key"] for record in records
        ]
        assert side["names"] == canonical_order({n for row in rows for n in row})
        for column in side["names"]:
            assert seg.materialize_column(side["columns"][column]) == [
                row.get(column) for row in rows
            ]

    def test_numeric_columns_are_zero_copy_views(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        store.compact()
        names, columns = SweepStore(tmp_path / "s").analysis_columns()
        by_name = dict(zip(names, columns))
        assert isinstance(by_name["analytic_success"], np.ndarray)
        assert by_name["analytic_success"].dtype == np.float64
        assert isinstance(by_name["shots"], np.ndarray)
        assert by_name["shots"].dtype == np.int64

    def test_resealing_same_records_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            store, _ = filled_store(tmp_path / sub)
            store.compact()
        digests = [packed_digest(tmp_path / sub) for sub in ("a", "b")]
        assert digests[0] == digests[1]
        assert any(name.endswith(".cols") for name in digests[0])


class TestCSVIdentity:
    def test_csv_identical_across_all_three_backends(self, tmp_path):
        # Loose files, the mmap'd sidecar, and the frame scan of a
        # segment whose sidecar is gone.
        filled_store(tmp_path / "loose")
        for sub in ("frames", "sidecar"):
            filled_store(tmp_path / sub)[0].compact()
        for cols in sidecar_files(tmp_path / "frames"):
            cols.unlink()
        csvs = {
            sub: store_csv(tmp_path / sub)
            for sub in ("loose", "frames", "sidecar")
        }
        assert csvs["loose"] == csvs["frames"] == csvs["sidecar"]
        assert csvs["loose"].count("\n") == 9  # header + 8 rows

    def test_csv_identical_for_mixed_sealed_plus_loose(self, tmp_path):
        filled_store(tmp_path / "loose")
        mixed, keys = filled_store(tmp_path / "mixed")
        mixed.compact(keys=keys[:5])
        assert store_csv(tmp_path / "mixed") == store_csv(tmp_path / "loose")

    def test_csv_identical_after_merge(self, tmp_path):
        filled_store(tmp_path / "loose")
        merged, keys = filled_store(tmp_path / "merged")
        for start in range(0, 8, 2):
            merged.compact(keys=keys[start : start + 2])
        merged.merge()
        assert store_csv(tmp_path / "merged") == store_csv(tmp_path / "loose")


class TestSidecarCorruption:
    """Truncated / bit-flipped / missing sidecars must degrade to the
    frame scan with one warning -- and never change a byte of output."""

    def _sealed(self, directory):
        store, _ = filled_store(directory)
        store.compact()
        return store_csv(directory)  # reference read via healthy sidecar

    def test_missing_sidecar_degrades_to_frame_scan(self, tmp_path):
        reference = self._sealed(tmp_path / "s")
        [cols] = sidecar_files(tmp_path / "s")
        cols.unlink()
        with pytest.warns(RuntimeWarning, match="sidecar"):
            table = ResultTable.from_store(SweepStore(tmp_path / "s"))
        assert table.to_csv() == reference

    def test_truncated_sidecar_degrades_to_frame_scan(self, tmp_path):
        reference = self._sealed(tmp_path / "s")
        [cols] = sidecar_files(tmp_path / "s")
        cols.write_bytes(cols.read_bytes()[:-16])
        with pytest.warns(RuntimeWarning, match="sidecar"):
            table = ResultTable.from_store(SweepStore(tmp_path / "s"))
        assert table.to_csv() == reference

    def test_bit_flipped_sidecar_degrades_to_frame_scan(self, tmp_path):
        reference = self._sealed(tmp_path / "s")
        [cols] = sidecar_files(tmp_path / "s")
        data = bytearray(cols.read_bytes())
        data[len(data) // 2] ^= 0x40
        cols.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning, match="sidecar"):
            table = ResultTable.from_store(SweepStore(tmp_path / "s"))
        assert table.to_csv() == reference

    def test_sidecar_warning_fires_once(self, tmp_path):
        self._sealed(tmp_path / "s")
        [cols] = sidecar_files(tmp_path / "s")
        cols.unlink()
        fresh = SweepStore(tmp_path / "s")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fresh.analysis_columns()
            fresh.analysis_columns()
        assert len([w for w in caught if "sidecar" in str(w.message)]) == 1

    def test_dead_sidecar_and_damaged_frame_keep_intact_records(
        self, tmp_path
    ):
        # Sidecar gone and one record frame damaged: the frame scan
        # serves exactly the other seven records, one warning each.
        self._sealed(tmp_path / "s")
        [cols] = sidecar_files(tmp_path / "s")
        cols.write_bytes(b"COLS reprocols 1\ngarbage")
        ref, keys = filled_store(tmp_path / "ref")
        ref.path(keys[3]).unlink()
        damaged = seg.load_manifest(tmp_path / "s").entries[keys[3]]
        [segment] = segment_files(tmp_path / "s")
        data = bytearray(segment.read_bytes())
        data[damaged.offset + 5] ^= 0x01
        segment.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning) as caught:
            table = ResultTable.from_store(SweepStore(tmp_path / "s"))
        messages = [str(w.message) for w in caught]
        assert any("sidecar" in m for m in messages)
        assert any("fails its checksum" in m for m in messages)
        assert table.to_csv() == store_csv(tmp_path / "ref")

    def test_crash_during_sidecar_write_converges_on_retry(
        self, tmp_path, monkeypatch
    ):
        class Boom(RuntimeError):
            pass

        store, _ = filled_store(tmp_path / "s")
        real_write = seg.atomic_write_bytes

        def injected(path, blob, **kwargs):
            if str(path).endswith(".cols"):
                raise Boom("injected crash mid-sidecar-write")
            return real_write(path, blob, **kwargs)

        monkeypatch.setattr(seg, "atomic_write_bytes", injected)
        with pytest.raises(Boom):
            store.compact()
        monkeypatch.setattr(seg, "atomic_write_bytes", real_write)
        report = SweepStore(tmp_path / "s").compact()
        assert report.sealed == 8
        fresh = SweepStore(tmp_path / "s")
        assert len(list(fresh.records())) == 8
        [cols] = [
            p
            for p in sidecar_files(tmp_path / "s")
            if seg.sidecar_name(report.segment) == p.name
        ]
        assert cols.stat().st_size > 0


class TestParallelMerge:
    def _chunked_store(self, directory) -> SweepStore:
        store, keys = filled_store(directory)
        for start in range(0, 8, 2):
            store.compact(keys=keys[start : start + 2])
        return store

    def test_parallel_merge_byte_identical_to_serial(self, tmp_path):
        serial = self._chunked_store(tmp_path / "serial")
        parallel = self._chunked_store(tmp_path / "parallel")
        # target_records=2 forces 4 output chunks, so the pool genuinely
        # fans out instead of degenerating to one task.
        serial_report = serial.merge(target_records=2)
        parallel_report = parallel.merge(target_records=2, jobs=4)
        assert parallel_report.summary_line == serial_report.summary_line
        assert parallel_report.segments == 4
        assert packed_digest(tmp_path / "parallel") == packed_digest(
            tmp_path / "serial"
        )
        assert (
            SweepStore(tmp_path / "parallel").stats().summary_line
            == SweepStore(tmp_path / "serial").stats().summary_line
        )
        assert store_csv(tmp_path / "parallel") == store_csv(tmp_path / "serial")

    def test_broken_pool_falls_back_to_serial(self, tmp_path, monkeypatch):
        import concurrent.futures

        reference = self._chunked_store(tmp_path / "ref")
        reference.merge(target_records=2)
        store = self._chunked_store(tmp_path / "s")

        def refuse(*args, **kwargs):
            raise OSError("no process pools here")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", refuse
        )
        with pytest.warns(RuntimeWarning, match="parallel merge pool"):
            report = store.merge(target_records=2, jobs=4)
        assert report.segments == 4
        assert packed_digest(tmp_path / "s") == packed_digest(tmp_path / "ref")

    def test_merge_rejects_bad_jobs(self, tmp_path):
        store, _ = filled_store(tmp_path / "s")
        with pytest.raises(ValueError, match="jobs"):
            store.merge(jobs=0)

    def test_merge_cli_jobs_flag(self, tmp_path, capsys):
        from repro.sweeps.__main__ import main

        self._chunked_store(tmp_path / "s")
        assert main(["merge", str(tmp_path / "s"), "--jobs", "2"]) == 0
        assert "MERGE sealed=0 merged=8 segments=1" in capsys.readouterr().out


class TestOpportunisticMerge:
    def test_pending_deltas_tracks_the_log(self, tmp_path):
        store, keys = filled_store(tmp_path / "s")
        for start in range(0, 8, 2):
            store.compact(keys=keys[start : start + 2])
        pending = store.pending_deltas()
        assert pending == store.stats().deltas
        assert pending > 0
        assert SweepStore(tmp_path / "empty").pending_deltas() == 0

    def test_maybe_merge_only_fires_at_threshold(self, tmp_path):
        store, keys = filled_store(tmp_path / "s")
        for start in range(0, 8, 2):
            store.compact(keys=keys[start : start + 2])
        pending = store.pending_deltas()
        assert store.maybe_merge(pending + 1) is None
        report = store.maybe_merge(pending)
        assert report is not None and report.merged == 8
        assert store.pending_deltas() == 0
        assert store.maybe_merge(1) is None  # nothing pending anymore

    def test_maybe_merge_skips_while_lock_held(self, tmp_path):
        store, keys = filled_store(tmp_path / "s")
        store.compact(keys=keys[:4])
        store.compact(keys=keys[4:])
        (tmp_path / "s" / "COMPACT.lock").touch()
        assert store.maybe_merge(1) is None

    def test_maybe_merge_rejects_bad_threshold(self, tmp_path):
        with pytest.raises(ValueError, match="threshold"):
            SweepStore(tmp_path / "s").maybe_merge(0)

    def test_run_sweep_merge_every_requires_seal(self, tmp_path):
        from repro.sweeps import SweepGrid, run_sweep

        grid = SweepGrid(
            benchmarks=("ADD",), techniques=("parallax",), shots=50
        )
        with pytest.raises(ValueError, match="seal"):
            run_sweep(
                grid, SweepStore(tmp_path / "s"), seal=False, merge_every=2
            )
        with pytest.raises(ValueError, match="positive"):
            run_sweep(
                grid, SweepStore(tmp_path / "s"), seal=True, merge_every=0
            )

    def test_merge_every_worker_matches_plain_run(self, tmp_path):
        from repro.sweeps import SweepGrid, run_sweep
        from repro.sweeps.distributed import run_worker

        grid = SweepGrid(
            benchmarks=("ADD",),
            techniques=("parallax", "graphine"),
            spec_axes={"cz_error": (0.002, 0.004)},
            shots=120,
            base_seed=5,
        )
        reference = run_sweep(grid, SweepStore(tmp_path / "ref"))
        report = run_worker(
            grid,
            SweepStore(tmp_path / "w"),
            owner="m1",
            seal=True,
            merge_every=1,
        )
        assert report.computed == grid.size
        merged = SweepStore(tmp_path / "w")
        assert tuple(
            merged.get(r["key"]) for r in reference.records
        ) == reference.records
        assert store_csv(tmp_path / "w") == store_csv(tmp_path / "ref")
        # The opportunistic merge actually ran: generation advanced.
        assert merged.stats().generation >= 1

    def test_cli_merge_every_requires_seal(self, tmp_path):
        from repro.sweeps.__main__ import main

        with pytest.raises(SystemExit):
            main(
                [
                    "--preset", "smoke", "--store", str(tmp_path / "s"),
                    "--merge-every", "2",
                ]
            )
        with pytest.raises(SystemExit):
            main(
                [
                    "worker", str(tmp_path / "s"), "--preset", "smoke",
                    "--merge-every", "2",
                ]
            )


class TestStatsJSON:
    def test_stats_json_matches_summary_line(self, tmp_path, capsys):
        from repro.sweeps.__main__ import main

        store, keys = filled_store(tmp_path / "s", n=6)
        store.compact(keys=keys[:4])
        assert main(["stats", str(tmp_path / "s"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = SweepStore(tmp_path / "s").stats()
        assert payload == stats.as_dict()
        for field, value in payload.items():
            assert f"{field}={value}" in stats.summary_line


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)


class TestSidecarProperties:
    @given(
        rows=st.integers(min_value=1, max_value=24),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_read_round_trip(self, tmp_path_factory, rows, data):
        keys = sorted(
            hashlib.sha256(f"prop{i}".encode()).hexdigest() for i in range(rows)
        )
        column_strategies = {
            "f": st.floats(allow_nan=False, allow_infinity=False),
            "i": st.integers(min_value=-(2**62), max_value=2**62),
            "b": st.booleans(),
            "s": st.text(max_size=12),
            "mixed": json_scalars,
        }
        names = []
        columns = {}
        for label, strategy in column_strategies.items():
            nullable = st.one_of(st.none(), strategy)
            columns[label] = data.draw(
                st.lists(nullable, min_size=rows, max_size=rows)
            )
            names.append(label)
        blob = seg.pack_sidecar(keys, names, columns)
        directory = tmp_path_factory.mktemp("sidecar")
        path = directory / "segment-000001.cols"
        path.write_bytes(blob)
        meta = seg.SegmentColumns(
            count=rows,
            sidecar_length=len(blob),
            sidecar_checksum=short_checksum(blob),
        )
        decoded = seg.read_segment_sidecar(path, meta)
        assert decoded is not None
        assert seg.materialize_column(decoded["keys"]) == keys
        assert decoded["names"] == names
        assert decoded["count"] == rows
        assert decoded["first_key"] == keys[0]
        assert decoded["last_key"] == keys[-1]
        for label in names:
            assert (
                seg.materialize_column(decoded["columns"][label])
                == columns[label]
            )
