"""Packed-segment store load gate: sealed segments vs. loose per-file JSON.

The acceptance bar for the segment backend: loading a >= 10^4-record
store through ``ResultTable.from_store`` must be **at least 10x faster**
when the store is compacted than when every record is its own JSON file --
that is the difference that makes million-record sweep analyses
interactive instead of minutes-long.  The mechanism under test is the
segment's binary columnar sidecar: one memory map per segment serves
analysis columns (numeric ones as zero-copy NumPy views) without opening
a single per-record file or parsing a single per-record dict.

Alongside the speed gate, the parity gates assert what makes the speedup
trustworthy: the loose, compacted, and half-compacted (mixed) forms of the
same store must render **byte-identical** analysis CSVs.
"""

import hashlib
import shutil
import time

import pytest

from repro.sweeps import ResultTable, SweepStore

RECORDS = 10_000
GATE = 10.0


def synth_record(i: int) -> tuple[str, dict]:
    """A schema-complete record shaped like real sweep output."""
    key = hashlib.sha256(f"perf-store-{i}".encode()).hexdigest()
    return key, {
        "scenario": {
            "benchmark": ("ADD", "QAOA", "MUL", "QFT")[i % 4],
            "technique": ("parallax", "graphine", "eldi")[i % 3],
            "shots": 1000,
            "seed": 17 * i + 3,
            "spec_name": "quera_aquila",
            "spec_overrides": {"cz_error": 0.0012 * (1 + i % 5)},
            "noise": {"include_readout": bool(i % 2)},
            "fingerprints": {
                "circuit": "c" * 64, "spec": "s" * 64, "config": "g" * 64,
            },
        },
        "result": {
            "num_cz": 100 + i % 37, "num_u3": 200 + i % 53, "num_ccz": i % 3,
            "num_swaps": i % 7, "num_moves": 40 + i % 11,
            "trap_change_events": i % 5, "num_layers": 20 + i % 13,
            "runtime_us": 500.0 + 0.25 * (i % 997),
        },
        "outcome": {
            "shots": 1000, "successes": 600 + i % 300,
            "gate_failures": 100 + i % 50, "movement_failures": 80 + i % 40,
            "decoherence_failures": 60 + i % 30, "readout_failures": i % 20,
            "success_rate": (600 + i % 300) / 1000.0,
            "stderr": 0.015 + 1e-5 * (i % 100),
        },
        "analytic_success": 0.62 + 1e-4 * (i % 1000),
    }


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """One loose and one fully-compacted copy of the same 10^4 records."""
    base = tmp_path_factory.mktemp("perf-store")
    loose = SweepStore(base / "loose")
    for i in range(RECORDS):
        key, record = synth_record(i)
        loose.put(key, record)
    shutil.copytree(base / "loose", base / "packed")
    packed = SweepStore(base / "packed")
    report = packed.compact()
    assert report.sealed == RECORDS
    return SweepStore(base / "loose"), SweepStore(base / "packed")


def _best_of(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_segment_load_at_least_10x_faster_than_loose(stores, perf):
    loose, packed = stores
    # Warm both paths (page cache, import side effects) before timing.
    assert len(ResultTable.from_store(packed)) == RECORDS
    t_packed = _best_of(lambda: ResultTable.from_store(packed), rounds=5)
    t_loose = _best_of(lambda: ResultTable.from_store(loose), rounds=3)
    speedup = t_loose / t_packed
    perf(
        "store_load.segments_vs_loose",
        records=RECORDS,
        loose_s=t_loose,
        packed_s=t_packed,
        speedup=speedup,
        gate=GATE,
    )
    assert speedup >= GATE, (
        f"segment load only {speedup:.1f}x faster than loose "
        f"({t_packed * 1e3:.1f} ms vs {t_loose * 1e3:.1f} ms "
        f"at {RECORDS} records)"
    )


def test_loaded_tables_are_identical(stores):
    loose, packed = stores
    table_loose = ResultTable.from_store(loose)
    table_packed = ResultTable.from_store(packed)
    assert table_loose.names == table_packed.names
    assert table_loose.rows == table_packed.rows


def test_analyze_csv_identical_for_loose_compacted_and_mixed(
    tmp_path_factory, perf
):
    base = tmp_path_factory.mktemp("csv-parity")
    loose = SweepStore(base / "store")
    keys = []
    for i in range(300):
        key, record = synth_record(i)
        loose.put(key, record)
        keys.append(key)
    csv_loose = ResultTable.from_store(loose).to_csv()

    mixed_dir = base / "mixed"
    shutil.copytree(base / "store", mixed_dir)
    SweepStore(mixed_dir).compact(keys=keys[:150])
    csv_mixed = ResultTable.from_store(SweepStore(mixed_dir)).to_csv()

    packed_dir = base / "packed"
    shutil.copytree(base / "store", packed_dir)
    SweepStore(packed_dir).compact()
    csv_packed = ResultTable.from_store(SweepStore(packed_dir)).to_csv()

    assert csv_mixed == csv_loose
    assert csv_packed == csv_loose
    perf(
        "store_load.csv_parity",
        records=300,
        identical=True,
    )
