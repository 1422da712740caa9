"""Tests for repro.sweeps.distributed: lease lifecycle, work stealing,
crash reclamation, and byte-identity with single-process runs."""

import hashlib
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.sweeps import SweepGrid, SweepStore, run_sweep
from repro.sweeps.analysis import ResultTable
from repro.sweeps.distributed import WorkerReport, run_distributed, run_worker
from repro.sweeps.runner import plan_sweep

KEY_A = "a" * 64
KEY_B = "b" * 64


def tiny_grid(**kwargs):
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
    """Filename -> sha256 of every record file (byte-level store content)."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).glob("*.json"))
    }


def age_lease(store: SweepStore, key: str, seconds: float) -> None:
    """Back-date a lease's heartbeat, simulating a stalled/dead owner."""
    past = time.time() - seconds
    os.utime(store.lease_path(key), (past, past))


class TestLeaseLifecycle:
    def test_acquire_release_round_trip(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        assert store.acquire_lease(KEY_A, "w1") == "acquired"
        assert store.lease_path(KEY_A).exists()
        lease = store.read_lease(KEY_A)
        assert lease["owner"] == "w1"
        assert lease["age_s"] < 10.0
        # A live lease blocks every other claimer.
        assert store.acquire_lease(KEY_A, "w2") is None
        # Only the owner can release.
        assert not store.release_lease(KEY_A, "w2")
        assert store.lease_path(KEY_A).exists()
        assert store.release_lease(KEY_A, "w1")
        assert store.read_lease(KEY_A) is None
        assert store.acquire_lease(KEY_A, "w2") == "acquired"

    def test_keys_lease_independently(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        assert store.acquire_lease(KEY_A, "w1") == "acquired"
        assert store.acquire_lease(KEY_B, "w2") == "acquired"
        assert store.read_lease(KEY_A)["owner"] == "w1"
        assert store.read_lease(KEY_B)["owner"] == "w2"

    def test_refresh_heartbeat(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        store.acquire_lease(KEY_A, "w1")
        age_lease(store, KEY_A, 100.0)
        assert store.read_lease(KEY_A)["age_s"] > 90.0
        # Non-owners cannot heartbeat someone else's claim.
        assert not store.refresh_lease(KEY_A, "w2")
        assert store.read_lease(KEY_A)["age_s"] > 90.0
        assert store.refresh_lease(KEY_A, "w1")
        assert store.read_lease(KEY_A)["age_s"] < 10.0

    def test_expired_lease_reclaimed(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        store.acquire_lease(KEY_A, "w1")
        age_lease(store, KEY_A, 100.0)
        assert store.acquire_lease(KEY_A, "w2", ttl_s=50.0) == "reclaimed"
        assert store.read_lease(KEY_A)["owner"] == "w2"
        # The dead owner's release must not destroy the reclaimer's lease.
        assert not store.release_lease(KEY_A, "w1")
        assert store.read_lease(KEY_A)["owner"] == "w2"

    def test_live_lease_not_reclaimed(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        store.acquire_lease(KEY_A, "w1")
        assert store.acquire_lease(KEY_A, "w2", ttl_s=3600.0) is None
        assert store.read_lease(KEY_A)["owner"] == "w1"

    def test_half_written_lease_blocks_then_expires(self, tmp_path):
        # A worker killed between the exclusive create and the body write
        # leaves an empty lease: an anonymous claim that still blocks
        # until its TTL passes, then is reclaimed like any other.
        store = SweepStore(tmp_path / "s")
        store.lease_dir.mkdir(parents=True, exist_ok=True)
        store.lease_path(KEY_A).touch()
        assert store.read_lease(KEY_A)["owner"] is None
        assert store.acquire_lease(KEY_A, "w2", ttl_s=3600.0) is None
        age_lease(store, KEY_A, 100.0)
        assert store.acquire_lease(KEY_A, "w2", ttl_s=50.0) == "reclaimed"

    def test_concurrent_claims_exactly_one_winner(self, tmp_path):
        # The acceptance bar for the claim protocol: any number of racing
        # claimers, exactly one O_CREAT|O_EXCL winner per key.
        for round_index in range(3):
            key = f"{round_index}" * 64
            with ThreadPoolExecutor(max_workers=8) as pool:
                claims = list(
                    pool.map(
                        lambda owner: SweepStore(tmp_path / "s").acquire_lease(
                            key, owner
                        ),
                        [f"w{i}" for i in range(8)],
                    )
                )
            assert claims.count("acquired") == 1
            assert claims.count(None) == 7

    def test_concurrent_reclaims_exactly_one_winner(self, tmp_path):
        # Eight racers on one expired lease: exactly one may win.  The
        # winner reports "reclaimed", or "acquired" when it slipped its
        # create into the gap between a reclaimer's rename and re-create.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for trial in range(200):
                directory = tmp_path / f"s{trial}"
                store = SweepStore(directory)
                store.acquire_lease(KEY_A, "dead")
                age_lease(store, KEY_A, 100.0)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    claims = list(
                        pool.map(
                            lambda owner: SweepStore(directory).acquire_lease(
                                KEY_A, owner, ttl_s=50.0
                            ),
                            [f"w{i}" for i in range(8)],
                        )
                    )
                winners = [
                    f"w{i}" for i, claim in enumerate(claims)
                    if claim is not None
                ]
                assert len(winners) == 1, (trial, claims)
                assert store.read_lease(KEY_A)["owner"] == winners[0]
                assert sorted(p.name for p in store.lease_dir.iterdir()) == [
                    f"{KEY_A}.lease"
                ]
        finally:
            sys.setswitchinterval(interval)

    def test_stats_count_active_leases(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        assert store.stats().leases == 0
        store.acquire_lease(KEY_A, "w1")
        stats = store.stats()
        assert stats.leases == 1
        assert "1 active lease" in stats.describe()
        store.release_lease(KEY_A, "w1")
        assert store.stats().leases == 0

    def test_clear_removes_leases(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        store.acquire_lease(KEY_A, "w1")
        store.clear()
        assert store.read_lease(KEY_A) is None
        assert not store.lease_dir.exists()

    def test_missing_keys_preserves_order(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        store.put(KEY_B, {"v": 1})
        assert list(store.missing_keys([KEY_A, KEY_B, "c" * 64])) == [
            KEY_A,
            "c" * 64,
        ]

    def test_leases_invisible_to_records_and_compaction(self, tmp_path):
        # Lease files are never records: iteration, len, and compaction
        # must not touch leases/ even while claims are outstanding.
        store = SweepStore(tmp_path / "s")
        store.put(KEY_A, {"v": 1})
        store.acquire_lease(KEY_B, "w1")
        assert len(store) == 1
        assert [r["key"] for r in store.records()] == [KEY_A]
        report = store.compact()
        assert report.sealed == 1 and report.skipped == 0
        assert store.read_lease(KEY_B)["owner"] == "w1"


class TestSigkilledWorker:
    def test_lease_of_sigkilled_holder_survives_then_reclaims(self, tmp_path):
        # A real SIGKILLed process: its lease file stays behind (nothing
        # releases it), blocks until the TTL passes, then is reclaimed.
        src = str(Path(repro.__file__).parents[1])
        code = (
            "import sys, time\n"
            "from repro.sweeps.store import SweepStore\n"
            "store = SweepStore(sys.argv[1])\n"
            "assert store.acquire_lease(sys.argv[2], 'victim') == 'acquired'\n"
            "print('HELD', flush=True)\n"
            "time.sleep(120)\n"
        )
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(tmp_path / "s"), KEY_A],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "HELD"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        store = SweepStore(tmp_path / "s")
        assert store.read_lease(KEY_A)["owner"] == "victim"
        assert store.acquire_lease(KEY_A, "heir", ttl_s=3600.0) is None
        age_lease(store, KEY_A, 100.0)
        assert store.acquire_lease(KEY_A, "heir", ttl_s=50.0) == "reclaimed"

    def test_replacement_worker_reclaims_and_completes(self, tmp_path):
        # Crash/restart interleaving: a run that died after 2 records,
        # leaving an expired lease on a third key, is finished by a
        # replacement worker -- byte-identically to an uninterrupted run.
        grid = tiny_grid()
        reference = run_sweep(grid, SweepStore(tmp_path / "ref"))

        store = SweepStore(tmp_path / "s")
        run_sweep(grid, store, limit=2)
        plan = plan_sweep(grid)
        assert store.acquire_lease(plan.keys[2], "crashed") == "acquired"
        age_lease(store, plan.keys[2], 3600.0)

        report = run_worker(grid, store, owner="heir", ttl_s=60.0)
        assert report.computed == grid.size - 2
        assert report.resumed == 2
        assert report.reclaimed == 1
        assert store_digest(tmp_path / "ref") == store_digest(tmp_path / "s")
        assert not store.lease_dir.exists()


class TestWorkerByteIdentity:
    def test_one_worker_matches_run_sweep(self, tmp_path):
        grid = tiny_grid()
        run_sweep(grid, SweepStore(tmp_path / "ref"))
        report = run_worker(grid, SweepStore(tmp_path / "w"))
        assert isinstance(report, WorkerReport)
        assert report.computed == grid.size
        assert report.resumed == 0
        assert store_digest(tmp_path / "ref") == store_digest(tmp_path / "w")

    def test_two_spawned_workers_match_run_sweep(self, tmp_path):
        # The acceptance bar: N claim-loop workers produce a store
        # byte-identical to the single-process run, down to the CSV.
        grid = tiny_grid()
        reference = run_sweep(grid, SweepStore(tmp_path / "ref"))
        report = run_distributed(grid, SweepStore(tmp_path / "d"), workers=2)
        assert report.computed == grid.size
        assert report.resumed == 0
        assert report.records == reference.records
        assert store_digest(tmp_path / "ref") == store_digest(tmp_path / "d")
        ref_csv = ResultTable.from_store(SweepStore(tmp_path / "ref")).to_csv()
        dist_csv = ResultTable.from_store(SweepStore(tmp_path / "d")).to_csv()
        assert ref_csv == dist_csv

    def test_run_sweep_distributed_flag(self, tmp_path):
        grid = tiny_grid()
        reference = run_sweep(grid, SweepStore(tmp_path / "ref"))
        report = run_sweep(
            grid, SweepStore(tmp_path / "d"), distributed=True, workers=2
        )
        assert report.records == reference.records
        assert store_digest(tmp_path / "ref") == store_digest(tmp_path / "d")

    def test_distributed_requires_store(self):
        with pytest.raises(ValueError, match="requires a store"):
            run_sweep(tiny_grid(), None, distributed=True, workers=2)

    def test_workers_joining_a_finished_store_resume_everything(self, tmp_path):
        grid = tiny_grid()
        store = SweepStore(tmp_path / "s")
        run_sweep(grid, store)
        report = run_worker(grid, store)
        assert report.computed == 0
        assert report.resumed == grid.size
        assert report.summary_line.startswith("RESUME computed=0 resumed=4 ")

    def test_sealing_worker_matches_loose_analysis(self, tmp_path):
        grid = tiny_grid()
        run_sweep(grid, SweepStore(tmp_path / "ref"))
        store = SweepStore(tmp_path / "s")
        run_worker(grid, store, seal=True)
        stats = SweepStore(tmp_path / "s").stats()
        assert stats.sealed == grid.size and stats.loose == 0
        ref_csv = ResultTable.from_store(SweepStore(tmp_path / "ref")).to_csv()
        sealed_csv = ResultTable.from_store(SweepStore(tmp_path / "s")).to_csv()
        assert ref_csv == sealed_csv

    def test_worker_sees_records_sealed_by_a_peer(self, tmp_path):
        # A worker whose SweepStore instance cached its manifest before a
        # peer compacted (--seal deletes sealed loose files) must reload
        # and resume those records, not re-evaluate the whole grid.
        grid = tiny_grid()
        store = SweepStore(tmp_path / "s")
        assert store.manifest() is None  # prime the stale (empty) cache
        peer = SweepStore(tmp_path / "s")
        run_sweep(grid, peer)
        assert peer.compact().sealed == grid.size  # loose files now gone
        report = run_worker(grid, store)
        assert report.computed == 0
        assert report.resumed == grid.size

    def test_worker_self_heals_corrupt_record(self, tmp_path):
        # Like --resume, a worker's initial scan treats a corrupt record
        # as missing and recomputes it in place.
        grid = tiny_grid()
        reference = run_sweep(grid, SweepStore(tmp_path / "ref"))
        store = SweepStore(tmp_path / "s")
        run_sweep(grid, store)
        plan = plan_sweep(grid)
        store.path(plan.keys[1]).write_text("{torn", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="unreadable record"):
            report = run_worker(grid, store)
        assert report.computed == 1
        assert store_digest(tmp_path / "ref") == store_digest(tmp_path / "s")

    def test_summary_line_contract(self, tmp_path):
        grid = tiny_grid()
        report = run_worker(grid, SweepStore(tmp_path / "s"), owner="me")
        line = report.summary_line
        # Shared grep contract first, worker fields strictly appended.
        assert line.startswith(
            f"RESUME computed={grid.size} resumed=0 "
            f"scenarios={grid.size} compilations=2 "
        )
        assert "owner=me" in line and "reclaimed=0" in line


class TestWorkerCLI:
    def test_worker_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.sweeps.__main__ import main

        # The same grid the CLI flags below describe (the default preset's
        # noise axis narrowed to its base value).
        grid = tiny_grid(noise_axes={"include_readout": (False,)})
        run_sweep(grid, SweepStore(tmp_path / "ref"))
        assert main([
            "worker", str(tmp_path / "w"),
            "--benchmarks", "ADD",
            "--techniques", "parallax,graphine",
            "--spec-axis", "cz_error=0.002,0.004",
            "--noise-axis", "include_readout=false",
            "--shots", "120", "--seed", "5", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "RESUME computed=4 resumed=0 scenarios=4" in out
        assert store_digest(tmp_path / "ref") == store_digest(tmp_path / "w")

    def test_worker_bad_ttl_rejected(self):
        from repro.sweeps.__main__ import main

        with pytest.raises(SystemExit):
            main(["worker", "x", "--ttl", "0"])

    def test_run_workers_flag_requires_store(self):
        from repro.sweeps.__main__ import main

        with pytest.raises(SystemExit):
            main(["--workers", "2"])
