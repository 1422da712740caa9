"""Store scale-envelope gates: O(delta) publish and range-lease claims.

The acceptance bars for the scale envelope (PR 7), measured on a
10^5-record store:

- **incremental publish >= 5x faster** -- publishing a freshly sealed
  segment must cost one delta-log append (O(batch)), not a full manifest
  checkpoint rewrite (O(store)).  This is what keeps ``--seal`` workers'
  publication cost flat as a million-record sweep fills in.
- **>= 10x fewer lease metadata ops per evaluated scenario** -- claiming
  contiguous key ranges (``--lease-range``) amortizes one lease file's
  create/heartbeat/release over the whole range, instead of paying the
  full claim protocol per scenario.  Counted at the ``os``-level call
  boundary, filtered to the ``leases/`` directory, driving the real
  SweepStore lease API.

Alongside the speed gates, the parity gate asserts what makes them
trustworthy: merging the 10^5-record store (folding its delta log and
rewriting its segments into one fresh generation) must not change a single
analysis row.
"""

import hashlib
import io
import os
import shutil
import time

import pytest

from repro import __version__
from repro.sweeps import ResultTable, SweepStore, range_blocks
from repro.sweeps import segments as seg
from repro.sweeps.store import SCHEMA_VERSION

RECORDS = 100_000
PUBLISH_BATCH = 256
PUBLISH_GATE = 5.0
LEASE_KEYS = 4096
LEASE_RANGE = 128
LEASE_GATE = 10.0


def synth_record(i: int) -> tuple[str, dict]:
    """A schema-complete record shaped like real sweep output, already
    carrying the envelope fields ``put`` would add (so it can be packed
    into segments directly, skipping 10^5 loose-file writes)."""
    key = hashlib.sha256(f"perf-scale-{i}".encode()).hexdigest()
    return key, {
        "key": key,
        "schema_version": SCHEMA_VERSION,
        "engine_version": __version__,
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
def big_store(tmp_path_factory):
    """A 10^5-record generation-1 store plus one delta publication, built
    through the segment writer directly (packing is the subject under
    test; filling 10^5 loose files is not)."""
    directory = tmp_path_factory.mktemp("perf-scale") / "store"
    directory.mkdir()
    records = dict(synth_record(i) for i in range(RECORDS))
    ordered = sorted(records)
    entries: dict = {}
    columns: dict = {}
    namer = seg.generation_segment_namer(1)
    for start in range(0, RECORDS, SweepStore.DEFAULT_MERGE_TARGET):
        chunk = [records[k] for k in ordered[start : start + SweepStore.DEFAULT_MERGE_TARGET]]
        name, segment_entries, segment_columns = seg.write_segment(
            directory, chunk, namer=namer
        )
        for entry in segment_entries:
            entries[entry.key] = entry
        columns[name] = segment_columns
    manifest = seg.Manifest(
        entries=entries,
        segments=columns,
        schema_version=SCHEMA_VERSION,
        engine_version=__version__,
        generation=1,
    )
    assert seg.write_manifest(directory, manifest)
    # One publication on top of the checkpoint, so readers replay a
    # non-empty delta log at scale.
    batch = dict(synth_record(RECORDS + i) for i in range(PUBLISH_BATCH))
    name, batch_entries, batch_columns = seg.write_segment(
        directory, [batch[k] for k in sorted(batch)]
    )
    assert seg.append_manifest_delta(
        directory, 1, name, batch_entries, batch_columns
    )
    store = SweepStore(directory)
    stats = store.stats()
    assert stats.sealed == RECORDS + PUBLISH_BATCH
    assert stats.deltas == 1
    return store, manifest


def _best_of(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_incremental_publish_at_least_5x_faster_than_checkpoint(
    big_store, tmp_path, perf
):
    _, manifest = big_store
    scratch_delta = tmp_path / "delta"
    scratch_checkpoint = tmp_path / "checkpoint"
    scratch_delta.mkdir()
    scratch_checkpoint.mkdir()
    batches = iter(range(10**6, 10**7, 10**4))
    written = {"bytes": 0}
    real_write = seg.atomic_write_bytes

    def counted_write(path, data):
        written["bytes"] += len(data)
        return real_write(path, data)

    def publish_delta():
        base = next(batches)
        batch = dict(synth_record(base + i) for i in range(PUBLISH_BATCH))
        name, entries, columns = seg.write_segment(
            scratch_delta, [batch[k] for k in sorted(batch)]
        )
        log = scratch_delta / seg.MANIFEST_DIR_NAME / seg.delta_log_name(1)
        before = log.stat().st_size if log.exists() else 0
        assert seg.append_manifest_delta(
            scratch_delta, 1, name, entries, columns
        )
        written["bytes"] += log.stat().st_size - before

    def publish_checkpoint():
        # What every publication cost before the delta log: sealing the
        # same batch, then rewriting the full 10^5-entry manifest.
        base = next(batches)
        batch = dict(synth_record(base + i) for i in range(PUBLISH_BATCH))
        name, entries, columns = seg.write_segment(
            scratch_checkpoint, [batch[k] for k in sorted(batch)]
        )
        full = seg.Manifest(
            entries={**manifest.entries, **{e.key: e for e in entries}},
            segments={**manifest.segments, name: columns},
            schema_version=SCHEMA_VERSION,
            engine_version=__version__,
            generation=1,
        )
        assert seg.write_manifest(scratch_checkpoint, full)

    publish_delta()  # warm both paths before measuring
    publish_checkpoint()

    # Walltime gate: 5x with a wide margin (measured ~25-40x locally; the
    # checkpoint side rewrites a ~12 MB manifest, the delta side appends
    # one fsynced line).
    t_delta = _best_of(publish_delta, rounds=3)
    t_checkpoint = _best_of(publish_checkpoint, rounds=3)
    walltime_speedup = t_checkpoint / t_delta

    # Trajectory gate: the bytes written per publish.  Deterministic for
    # fixed RECORDS/PUBLISH_BATCH (canonical JSON in, canonical JSON out),
    # so the trend gate never trips on a loaded runner's fsync latency,
    # while still measuring exactly the O(batch)-vs-O(store) claim.
    seg.atomic_write_bytes = counted_write
    try:
        written["bytes"] = 0
        publish_delta()
        bytes_delta = written["bytes"]
        written["bytes"] = 0
        publish_checkpoint()
        bytes_checkpoint = written["bytes"]
    finally:
        seg.atomic_write_bytes = real_write
    byte_ratio = bytes_checkpoint / bytes_delta

    perf(
        "store_scale.delta_publish_vs_checkpoint",
        records=RECORDS,
        batch=PUBLISH_BATCH,
        delta_s=t_delta,
        checkpoint_s=t_checkpoint,
        walltime_speedup=walltime_speedup,
        bytes_delta=bytes_delta,
        bytes_checkpoint=bytes_checkpoint,
        speedup=byte_ratio,
        gate=PUBLISH_GATE,
    )
    assert walltime_speedup >= PUBLISH_GATE, (
        f"delta publish only {walltime_speedup:.1f}x faster than a "
        f"checkpoint rewrite ({t_delta * 1e3:.1f} ms vs "
        f"{t_checkpoint * 1e3:.1f} ms for a {PUBLISH_BATCH}-record batch "
        f"over {RECORDS} records)"
    )
    assert byte_ratio >= PUBLISH_GATE, (
        f"delta publish writes only {byte_ratio:.1f}x fewer bytes than a "
        f"checkpoint rewrite ({bytes_delta} vs {bytes_checkpoint})"
    )


class _LeaseOpCounter:
    """Count ``os``-level filesystem calls that touch ``leases/``."""

    PATCHED = ("open", "stat", "rename", "link", "utime", "unlink", "mkdir")

    def __init__(self):
        self.count = 0
        self._originals = {}
        self._io_open = None

    def _wrap(self, fn):
        def counted(path, *args, **kwargs):
            if "leases" in str(path):
                self.count += 1
            return fn(path, *args, **kwargs)

        return counted

    def __enter__(self):
        for name in self.PATCHED:
            self._originals[name] = getattr(os, name)
            setattr(os, name, self._wrap(self._originals[name]))
        self._io_open = io.open
        io.open = self._wrap(self._io_open)
        return self

    def __exit__(self, *exc):
        for name, fn in self._originals.items():
            setattr(os, name, fn)
        io.open = self._io_open
        return False


def _claim_all(store: SweepStore, resources: list) -> None:
    """The worker claim pattern per resource: acquire, work, release."""
    for name in resources:
        assert store.acquire_lease(name, "bench-worker") == "acquired"
        store.release_lease(name, "bench-worker")


def test_range_leases_cut_metadata_ops_at_least_10x(tmp_path, perf):
    keys = [
        hashlib.sha256(f"lease-scale-{i}".encode()).hexdigest()
        for i in range(LEASE_KEYS)
    ]
    per_key_store = SweepStore(tmp_path / "per-key")
    ranged_store = SweepStore(tmp_path / "ranged")
    per_key = [name for name, _ in range_blocks(keys, 1)]
    ranged = [name for name, _ in range_blocks(keys, LEASE_RANGE)]
    assert len(per_key) == LEASE_KEYS
    assert len(ranged) == LEASE_KEYS // LEASE_RANGE

    with _LeaseOpCounter() as baseline:
        _claim_all(per_key_store, per_key)
    with _LeaseOpCounter() as amortized:
        _claim_all(ranged_store, ranged)

    ops_per_key = baseline.count / LEASE_KEYS
    ops_ranged = amortized.count / LEASE_KEYS
    assert ops_per_key > 0 and ops_ranged > 0
    reduction = ops_per_key / ops_ranged
    perf(
        "store_scale.range_lease_metadata_ops",
        scenarios=LEASE_KEYS,
        lease_range=LEASE_RANGE,
        ops_per_scenario_per_key=ops_per_key,
        ops_per_scenario_ranged=ops_ranged,
        speedup=reduction,
        gate=LEASE_GATE,
    )
    assert reduction >= LEASE_GATE, (
        f"range leases only cut lease metadata ops {reduction:.1f}x "
        f"({ops_per_key:.2f} -> {ops_ranged:.4f} ops/scenario at "
        f"lease_range={LEASE_RANGE})"
    )


def test_merge_at_scale_preserves_every_analysis_row(
    big_store, tmp_path, perf
):
    store, _ = big_store
    table_before = ResultTable.from_store(store)
    assert len(table_before) == RECORDS + PUBLISH_BATCH

    merged_dir = tmp_path / "merged"
    shutil.copytree(store.directory, merged_dir)
    report = SweepStore(merged_dir).merge()
    assert report.merged == RECORDS + PUBLISH_BATCH
    merged = SweepStore(merged_dir)
    stats = merged.stats()
    assert stats.deltas == 0 and stats.generation == 2

    table_after = ResultTable.from_store(merged)
    assert table_after.names == table_before.names
    assert table_after.rows == table_before.rows
    perf(
        "store_scale.merge_parity",
        records=RECORDS + PUBLISH_BATCH,
        segments_before=store.stats().segments,
        segments_after=stats.segments,
        identical=True,
    )
