"""Resumable on-disk store for sweep results.

Finished scenarios live in one of two interchangeable backends inside the
same store directory:

- **loose records** -- one JSON file per scenario, named by the scenario's
  content address (see :func:`scenario_key`), written atomically so
  parallel jobs and interrupted runs never leave half-written entries.
  Ideal for resume: "skip every scenario whose file already exists", no
  journal, safe under concurrent writers.
- **packed segments** (:mod:`repro.sweeps.segments`) -- immutable,
  checksummed, length-prefixed segment files produced by
  :meth:`SweepStore.compact`, indexed by an atomically-swapped manifest.
  Ideal for load: a million-record analysis is O(segments) bulk reads
  instead of O(records) file opens, and each segment's memory-mapped
  binary columnar sidecar serves :class:`~repro.sweeps.analysis.ResultTable`
  columns without per-record parsing.

Both backends answer :meth:`get`/:meth:`records` identically (loose wins
when a key exists in both), corrupt or truncated data always reads as
missing-with-warning, and each distinct problem warns **once per store
directory per process** (a 10^5-record scan over a few bad files must not
flood the log).  Warnings go both to :mod:`warnings` (``RuntimeWarning``)
and to the module logger ``repro.sweeps.store`` -- configure the latter
(e.g. ``logging.getLogger("repro.sweeps").setLevel(...)``) to control
store diagnostics in long-running workers.

A third kind of file supports **distributed sweeps**
(:mod:`repro.sweeps.distributed`): advisory *lease files* under
``leases/`` mark a scenario key as claimed by one worker.  A lease is
created atomically (``O_CREAT | O_EXCL``), carries its owner id, and is
heartbeat by file mtime; a lease whose heartbeat is older than the
caller's TTL is presumed abandoned (a SIGKILLed worker) and can be
reclaimed.  Leases are an *efficiency* mechanism only: records are pure
functions of their scenario content and :meth:`put` is atomic, so even a
duplicated evaluation writes byte-identical data.  Lease files are never
records -- iteration, compaction, and analysis ignore ``leases/``
entirely.

Record schema (``SCHEMA_VERSION = 2``)::

    {
      "schema_version": 2,
      "engine_version": "<repro.__version__ that computed the record>",
      "key": "<sha256 scenario address>",
      "scenario": {
        "benchmark", "technique", "shots", "seed",
        "spec_name", "spec_overrides": {field: value},
        "config_overrides": {field: value},   # only for config-axis grids
        "noise": {NoiseModelConfig fields},
        "fingerprints": {"circuit", "spec", "config"}
      },
      "result": {"num_cz", "num_u3", "num_ccz", "num_swaps", "num_moves",
                 "trap_change_events", "num_layers", "runtime_us"},
      "outcome": {"shots", "successes", "gate_failures",
                  "movement_failures", "decoherence_failures",
                  "readout_failures", "success_rate", "stderr"},
      "analytic_success": float
    }
"""

from __future__ import annotations

import contextlib
import heapq
import json
import logging
import mmap
import os
import socket
import time
import typing
import uuid
import warnings
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.serialize import canonical_dumps
from repro.pipeline.cache import atomic_write_text
from repro.pipeline.fingerprint import fingerprint_noise, fingerprint_obj, fingerprint_spec
from repro.sweeps import segments as seg

if typing.TYPE_CHECKING:
    from collections.abc import Iterable, Iterator
    from repro.sweeps.grid import Scenario

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "LEASE_DIR_NAME",
    "SCHEMA_VERSION",
    "CompactionReport",
    "MergeReport",
    "StoreStats",
    "SweepStore",
    "default_owner_id",
    "scenario_key",
]

SCHEMA_VERSION = 2

#: Subdirectory holding distributed-claim lease files (never records).
LEASE_DIR_NAME = "leases"

#: Leases whose heartbeat (file mtime) is older than this are presumed
#: abandoned -- long enough to survive one slow compile, short enough that
#: a SIGKILLed worker's keys are reclaimed promptly.
DEFAULT_LEASE_TTL_S = 60.0

_UNLOADED = object()

#: Module logger for store diagnostics; see the module docstring.
logger = logging.getLogger(__name__)

#: (scope, problem) pairs already reported this process.  Module-level so
#: the many short-lived SweepStore instances one process opens (evaluation
#: workers open the store once per chunk) report each distinct problem
#: once, not once per instance.
_WARNED: set = set()


def _warn_once(scope: str, dedup_key: str, message: str, stacklevel: int = 5) -> None:
    """Report one store problem once per (directory, problem) per process.

    Routes through both the module logger (configurable, survives
    ``warnings`` filters in long-running workers) and :mod:`warnings`
    (visible in tests and interactive use).
    """
    entry = (scope, dedup_key)
    if entry in _WARNED:
        return
    _WARNED.add(entry)
    logger.warning(message)
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel)


def default_owner_id() -> str:
    """A collision-free lease-owner id: host, pid, and a random tail.

    Host + pid alone would collide when a pid is recycled mid-sweep (or
    across container restarts sharing one filesystem), so a random suffix
    makes every worker invocation distinct.
    """
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def scenario_key(
    scenario: "Scenario", circuit_fp: str, config_fp: str
) -> str:
    """Content address of one evaluated scenario.

    Hashes everything the stored record is a pure function of: the circuit
    and compile-config fingerprints (which pin the compiled artifact), the
    effective spec, the noise configuration, and the shot count and seed of
    the Monte Carlo run, plus the package version (results from older
    engine code must not be resumed into newer sweeps).

    Config-axis overrides are mixed in *only when present*: a technique's
    ``make_config`` drops knobs it does not consume (ELDI ignores placement
    seeds), so the config fingerprint alone cannot separate two scenarios
    on an axis a technique ignores -- but they are still distinct rows of
    the sweep.  Config-less grids hash the exact payload older engines
    hashed, so their existing stores keep resuming byte-identically.
    """
    from repro import __version__

    payload = {
        "benchmark": scenario.benchmark,
        "technique": scenario.technique,
        "circuit": circuit_fp,
        "config": config_fp,
        "spec": fingerprint_spec(scenario.spec),
        "noise": fingerprint_noise(scenario.noise),
        "shots": scenario.shots,
        "seed": scenario.seed,
        "version": __version__,
    }
    overrides = getattr(scenario, "config_overrides", ())
    if overrides:
        payload["config_overrides"] = dict(overrides)
    return fingerprint_obj(payload)


@dataclass(frozen=True)
class CompactionReport:
    """Outcome of one :meth:`SweepStore.compact` or :meth:`SweepStore.seal`
    pass.

    Attributes:
        sealed: records packed into the new segment this pass.
        deduped: records dropped because their key was already sealed
            (e.g. a previous compaction was killed between its manifest
            swap and its loose-file cleanup); their loose twins are
            removed.
        skipped: loose files left untouched (unreadable, wrong schema, or
            foreign engine generation -- never silently destroyed).
        segment: filename of the newly sealed segment, or None when there
            was nothing to seal.
    """

    sealed: int
    deduped: int
    skipped: int
    segment: str | None


_NOTHING_SEALED = CompactionReport(sealed=0, deduped=0, skipped=0, segment=None)


@dataclass(frozen=True)
class MergeReport:
    """Outcome of one :meth:`SweepStore.merge` pass.

    Attributes:
        sealed: loose records compacted into segments before merging.
        merged: sealed records rewritten into generation-tagged segments
            (0 when the store was already fully merged -- merge is
            idempotent).
        segments: generation-tagged segment files written this pass.
        generation: the store's manifest generation after the pass.
        gc_segments: superseded or orphaned segment files removed.
        gc_manifest: stale manifest shard/delta files removed.
    """

    sealed: int
    merged: int
    segments: int
    generation: int
    gc_segments: int
    gc_manifest: int

    @property
    def summary_line(self) -> str:
        """Stable machine-readable one-liner (``MERGE sealed=... ...``);
        fields are append-only, like every other summary-line contract."""
        return (
            f"MERGE sealed={self.sealed} merged={self.merged} "
            f"segments={self.segments} generation={self.generation} "
            f"gc_segments={self.gc_segments} gc_manifest={self.gc_manifest}"
        )


@dataclass(frozen=True)
class StoreStats:
    """Backend census of one store directory."""

    loose: int
    sealed: int
    segments: int
    leases: int = 0
    generation: int = 0
    shards: int = 0
    deltas: int = 0

    def describe(self) -> str:
        text = (
            f"{self.loose} loose + {self.sealed} sealed records "
            f"in {self.segments} segment(s)"
        )
        if self.generation:
            text += (
                f", generation {self.generation} "
                f"({self.shards} shard(s), {self.deltas} delta(s))"
            )
        if self.leases:
            text += f", {self.leases} active lease(s)"
        return text

    @property
    def summary_line(self) -> str:
        """Stable machine-readable one-liner (``STATS loose=... ...``) for
        the ``stats`` subcommand and scripts; fields are append-only."""
        return (
            f"STATS loose={self.loose} sealed={self.sealed} "
            f"segments={self.segments} generation={self.generation} "
            f"shards={self.shards} deltas={self.deltas} "
            f"leases={self.leases}"
        )

    def as_dict(self) -> dict:
        """The census as one JSON-ready mapping -- the same fields as the
        ``STATS`` line, in the same order, for ``stats --json`` and fleet
        tooling that shouldn't grep prose.  Keys are append-only, like
        the line's fields."""
        return {
            "loose": self.loose,
            "sealed": self.sealed,
            "segments": self.segments,
            "generation": self.generation,
            "shards": self.shards,
            "deltas": self.deltas,
            "leases": self.leases,
        }


class SweepStore:
    """Directory of per-scenario records, addressed by scenario key."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest: object = _UNLOADED

    # -- warnings --------------------------------------------------------------

    def _warn(self, dedup_key: str, message: str) -> None:
        """Warn once per distinct problem per store directory per process.

        Every corrupt-data path funnels through here so a large scan over a
        store with a few bad files emits a few warnings, not one per access
        per iteration.  Deduplication is keyed on ``(directory, problem)``
        at module level (see :func:`_warn_once`), so reopening the store --
        which evaluation workers do once per chunk -- does not re-warn.
        """
        _warn_once(str(self.directory), dedup_key, message)

    # -- paths and manifest ----------------------------------------------------

    def path(self, key: str) -> Path:
        """Loose file backing ``key`` (exists iff stored loose)."""
        return self.directory / f"{key[:40]}.json"

    def loose_paths(self) -> "Iterator[Path]":
        """Every loose record file (the manifest is not a record)."""
        for path in self.directory.glob("*.json"):
            if path.name != seg.MANIFEST_NAME:
                yield path

    def manifest(self, reload: bool = False) -> "seg.Manifest | None":
        """The sealed-record index, lazily loaded and cached."""
        if reload or self._manifest is _UNLOADED:
            self._manifest = seg.load_manifest(self.directory, warn=self._warn)
        return self._manifest  # type: ignore[return-value]

    def _owns_root(self, manifest: "seg.Manifest") -> bool:
        """Whether this engine may read, extend and garbage-collect the
        root ``manifest`` was loaded from: its schema and engine
        generation are this engine's.

        The one ownership rule behind the read path, :meth:`compact`,
        :meth:`seal` and :meth:`merge`.  A foreign root's Monte Carlo
        numbers must never blend into a newer analysis, and publishing
        over it would drop its index, after which the next merge would
        garbage-collect segments no engine of this generation can
        re-read.
        """
        from repro import __version__

        return (
            manifest.schema_version == SCHEMA_VERSION
            and manifest.engine_version == __version__
        )

    def _current_manifest(self) -> "seg.Manifest | None":
        """The manifest, if this engine owns its root (see
        :meth:`_owns_root`); a foreign root is skipped whole, with one
        warning, mirroring the per-record generation check on loose
        files."""
        from repro import __version__

        manifest = self.manifest()
        if manifest is None:
            return None
        if not self._owns_root(manifest):
            self._warn(
                f"{seg.MANIFEST_NAME}:generation",
                f"sweep store: skipping {len(manifest.entries)} sealed "
                f"records from engine {manifest.engine_version!r} / schema "
                f"{manifest.schema_version!r} (this is {__version__} / "
                f"{SCHEMA_VERSION}, which neither reads nor rewrites that "
                f"index; sweep into a fresh store to refresh them)",
            )
            return None
        return manifest

    # -- membership ------------------------------------------------------------

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, str):
            return False
        if self.path(key).exists():
            return True
        manifest = self._current_manifest()
        return manifest is not None and key in manifest.entries

    def __len__(self) -> int:
        prefixes = {path.stem for path in self.loose_paths()}
        manifest = self._current_manifest()
        if manifest is not None:
            prefixes |= {key[:40] for key in manifest.entries}
        return len(prefixes)

    def stats(self) -> StoreStats:
        """Loose/sealed record counts, segment/generation census, and
        active leases."""
        manifest = self._current_manifest()
        return StoreStats(
            loose=sum(1 for _ in self.loose_paths()),
            sealed=len(manifest.entries) if manifest is not None else 0,
            segments=len(manifest.segments) if manifest is not None else 0,
            leases=sum(1 for _ in self.lease_paths()),
            generation=manifest.generation if manifest is not None else 0,
            shards=manifest.shard_count if manifest is not None else 0,
            deltas=manifest.delta_records if manifest is not None else 0,
        )

    def missing_keys(self, keys: "Iterable[str]") -> "Iterator[str]":
        """Yield every key of ``keys`` not yet stored, preserving order.

        The pending-work iterator behind the distributed claim loop: a
        worker scans the grid's keys through this, then races to lease
        each one.  Membership is existence-level (loose file present or
        key sealed in the current-generation manifest) -- cheap enough to
        re-scan every round -- so a corrupt record *is* counted as present
        here and only discovered (and recomputed) by :meth:`get` at resume
        time.
        """
        for key in keys:
            if key not in self:
                yield key

    # -- loose-record parsing --------------------------------------------------

    def _load(self, path: Path) -> dict | None:
        """Parse one loose record file; truncated/corrupt entries are
        *missing*.

        A kill mid-write on a filesystem without atomic rename can leave a
        half-written file behind; raising there would wedge every later
        ``--resume``, so unreadable records warn once and read as absent
        (the scenario is simply recomputed and the file overwritten).
        """
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            self._warn(
                f"{path.name}:unreadable",
                f"sweep store: treating unreadable record {path.name} as "
                f"missing ({exc})",
            )
            return None
        if not isinstance(record, dict):
            self._warn(
                f"{path.name}:non-object",
                f"sweep store: treating non-object record {path.name} as missing",
            )
            return None
        return record

    def _generation_ok(self, record: dict, source: str) -> bool:
        """Schema + engine generation gate shared by every read path."""
        from repro import __version__

        if record.get("schema_version") != SCHEMA_VERSION:
            self._warn(
                f"{source}:schema",
                f"sweep store: skipping record {source} with "
                f"schema_version={record.get('schema_version')!r} "
                f"(expected {SCHEMA_VERSION})",
            )
            return False
        if record.get("engine_version") != __version__:
            self._warn(
                f"{source}:engine",
                f"sweep store: skipping record {source} computed by "
                f"engine {record.get('engine_version')!r} (this is "
                f"{__version__}; rerun the sweep to refresh it)",
            )
            return False
        return True

    # -- point reads and writes ------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The stored record for ``key``, or None (corrupt data counts as
        missing-with-warning, so an interrupted write is simply recomputed).

        Loose records win over sealed ones; a loose record that fails to
        parse falls back to the sealed copy when one exists.
        """
        path = self.path(key)
        if path.exists():
            record = self._load(path)
            if (
                record is not None
                and record.get("key") == key
                and self._generation_ok(record, path.name)
            ):
                return record
        manifest = self._current_manifest()
        if manifest is None:
            return None
        entry = manifest.entries.get(key)
        if entry is None:
            return None
        segment_path = self.directory / entry.segment
        if not segment_path.exists():
            self._warn(
                f"{entry.segment}:missing",
                f"sweep store: manifest points at missing segment "
                f"{entry.segment}; its records read as missing "
                f"(recompact to rebuild the index)",
            )
            return None
        record = seg.read_segment_record(segment_path, entry, warn=self._warn)
        if record is None or record.get("key") != key:
            return None
        if not self._generation_ok(record, f"{entry.segment}:{key[:12]}"):
            return None
        return record

    def put(self, key: str, record: dict) -> None:
        """Persist ``record`` under ``key`` atomically (as a loose file).

        The stamped ``key``/``schema_version``/``engine_version`` fields
        are authoritative (they overwrite any stale values in ``record``),
        and a failed write raises: a sweep whose store cannot persist must
        not keep reporting scenarios as safely computed.
        """
        self._write_loose(key, self._stamped(key, record))

    @staticmethod
    def _stamped(key: str, record: dict) -> str:
        """``record`` stamped with its key and this engine's generation,
        as the canonical JSON text every backend stores."""
        from repro import __version__

        return canonical_dumps(
            {
                **record,
                "schema_version": SCHEMA_VERSION,
                "engine_version": __version__,
                "key": key,
            }
        )

    def _write_loose(self, key: str, text: str) -> None:
        """Atomically write one stamped record text as ``key``'s loose
        file; raises ``OSError`` when the filesystem refuses."""
        if not atomic_write_text(self.path(key), text):
            raise OSError(f"failed to persist sweep record to {self.path(key)}")

    # -- leases (distributed claims) -------------------------------------------

    @property
    def lease_dir(self) -> Path:
        return self.directory / LEASE_DIR_NAME

    def lease_path(self, key: str) -> Path:
        """Lease file backing ``key`` (exists iff some worker claims it).

        ``key`` is any claimable resource name: a full scenario key (never
        truncated -- two keys sharing a long prefix must not share a lease
        file and silently serialize or cross-release each other) or a
        ``range-<checksum>`` block name from the range-lease protocol
        (:mod:`repro.sweeps.distributed`).
        """
        return self.lease_dir / f"{key}.lease"

    def lease_paths(self) -> "Iterator[Path]":
        """Every lease file currently on disk (live or expired)."""
        if not self.lease_dir.is_dir():
            return
        yield from self.lease_dir.glob("*.lease")

    def _write_lease(self, path: Path, key: str, owner: str) -> bool:
        """Atomically *claim* ``path`` for ``owner`` (O_CREAT | O_EXCL).

        The exclusive create is the claim; the JSON body (owner/pid/host)
        is informational.  A worker killed between create and write leaves
        an empty lease, which simply expires by TTL like any other.
        """
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError:
            return False
        try:
            payload = canonical_dumps(
                {
                    "key": key,
                    "owner": owner,
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                    "acquired_at": time.time(),
                }
            )
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)
        return True

    def read_lease(self, key: str) -> dict | None:
        """The lease claiming ``key`` -- its JSON body plus ``age_s`` (the
        seconds since its last heartbeat) -- or None when unclaimed.

        An unreadable or half-written lease body reads as an *anonymous*
        claim (``owner`` None): it still blocks acquisition until its TTL
        expires, because some process did win the exclusive create.
        """
        path = self.lease_path(key)
        try:
            age = time.time() - path.stat().st_mtime
            body = json.loads(path.read_text(encoding="utf-8"))
        except OSError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            body = {}
        if not isinstance(body, dict):
            body = {}
        return {"owner": body.get("owner"), "age_s": max(age, 0.0), **body}

    def acquire_lease(
        self, key: str, owner: str, ttl_s: float = DEFAULT_LEASE_TTL_S
    ) -> str | None:
        """Try to claim ``key`` for ``owner``; the distributed-claim core.

        Returns ``"acquired"`` (fresh claim), ``"reclaimed"`` (an expired
        lease -- heartbeat older than ``ttl_s`` -- was taken over), or
        ``None`` (a live lease holds the key; try another key and come
        back).

        Atomicity: creation is ``O_CREAT | O_EXCL``, so exactly one of any
        number of racing claimers wins.  Reclaimers of an expired lease
        take turns through a per-key mutex (``<key>.lease.reclaiming``,
        itself an exclusive create; the losers see the key as contended).
        Without it a slow reclaimer could move the fresh lease another
        reclaimer had just created, and a third claimer could fill the
        gap: two winners.  The holder re-checks the lease, *renames* it
        to a unique tombstone, and only then re-creates it.  If the
        tombstone is not the inode and mtime judged expired (its owner
        refreshed it in between), the lease is put back with
        ``os.link``, as :meth:`release_lease` does.  A mutex older than
        ``ttl_s`` belongs to a reclaimer that died holding it and is
        broken.
        """
        path = self.lease_path(key)
        self.lease_dir.mkdir(parents=True, exist_ok=True)
        if self._write_lease(path, key, owner):
            return "acquired"
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            # Holder released between our create attempt and the stat.
            return "acquired" if self._write_lease(path, key, owner) else None
        if age <= ttl_s:
            return None
        mutex = path.with_name(f"{path.name}.reclaiming")
        if not self._write_lease(mutex, key, owner):
            try:
                if time.time() - mutex.stat().st_mtime > ttl_s:
                    mutex.unlink()
            except OSError:
                pass
            return None
        try:
            return "reclaimed" if self._reclaim(path, key, owner, ttl_s) else None
        finally:
            try:
                mutex.unlink()
            except OSError:
                pass

    def _reclaim(self, path: Path, key: str, owner: str, ttl_s: float) -> bool:
        """:meth:`acquire_lease`'s takeover of an expired lease; the caller
        holds the key's reclaim mutex.  True when ``owner`` now holds it."""
        try:
            expired = path.stat()
        except OSError:
            return False
        if time.time() - expired.st_mtime <= ttl_s:
            return False  # reclaimed by the previous mutex holder
        tombstone = path.with_name(
            f"{path.name}.reclaim-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        try:
            os.rename(path, tombstone)
        except OSError:
            return False
        try:
            moved = tombstone.stat()
            stale = (moved.st_ino, moved.st_mtime_ns) == (
                expired.st_ino, expired.st_mtime_ns,
            )
        except OSError:
            stale = False
        if not stale:
            try:
                os.link(tombstone, path)
            except OSError:
                pass
        try:
            tombstone.unlink()
        except OSError:
            pass
        return stale and self._write_lease(path, key, owner)

    def refresh_lease(self, key: str, owner: str) -> bool:
        """Heartbeat ``owner``'s lease on ``key`` (bump its mtime).

        Returns False -- without touching anything -- when the lease is
        gone or owned by someone else (it expired and was reclaimed while
        we worked; the work is still safe to finish, since records are
        pure and writes atomic, but the caller should stop refreshing).
        """
        lease = self.read_lease(key)
        if lease is None or lease.get("owner") != owner:
            return False
        try:
            os.utime(self.lease_path(key))
        except OSError:
            return False
        return True

    def release_lease(self, key: str, owner: str) -> bool:
        """Drop ``owner``'s lease on ``key``; True when removed.

        Only the owner's own lease is removed: if the lease expired and
        another worker reclaimed it, releasing must not destroy *their*
        claim.  An orphaned lease (owner gone) is left to expire by TTL.

        A plain read-then-unlink would race a reclaimer (the lease could
        change hands between the two calls), so release renames the lease
        to a private tombstone first -- atomic, exactly one mover -- and
        verifies ownership on the tombstone.  A stranger's lease moved by
        mistake is restored with ``os.link`` (which refuses to clobber an
        even newer claim rather than overwrite it).
        """
        lease = self.read_lease(key)
        if lease is None or lease.get("owner") != owner:
            return False
        path = self.lease_path(key)
        tombstone = path.with_name(
            f"{path.name}.release-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        try:
            os.rename(path, tombstone)
        except OSError:
            return False  # already gone (released or reclaimed-and-released)
        try:
            body = json.loads(tombstone.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            body = {}
        mine = isinstance(body, dict) and body.get("owner") == owner
        if not mine:
            # The lease changed hands between the read and the rename:
            # put the reclaimer's claim back (link is atomic and fails --
            # leaving their lease lost-to-TTL at worst -- if a third
            # claim appeared meanwhile, rather than destroying it).
            try:
                os.link(tombstone, path)
            except OSError:
                pass
        try:
            tombstone.unlink()
        except OSError:
            pass
        return mine

    def prune_lease_dir(self) -> None:
        """Remove the ``leases/`` directory if it is empty (cosmetic --
        keeps a cleanly finished distributed store byte-identical in
        layout to a single-process one)."""
        try:
            self.lease_dir.rmdir()
        except OSError:
            pass

    # -- iteration -------------------------------------------------------------

    def _segment_stream(self, name: str) -> "Iterator[tuple[str, dict]]":
        """Yield one segment's readable ``(key, record)`` pairs in file
        (= ascending key) order, memory-mapped so a whole-store stream
        never holds more than the records in flight."""
        path = self.directory / name
        if not path.exists():
            self._warn(
                f"{name}:missing",
                f"sweep store: manifest points at missing segment "
                f"{name}; its records read as missing "
                f"(recompact to rebuild the index)",
            )
            return
        try:
            with open(path, "rb") as handle:
                try:
                    data: "bytes | mmap.mmap" = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                except (ValueError, OSError):
                    data = handle.read()
        except OSError as exc:
            self._warn(
                f"{name}:missing",
                f"sweep store: manifest points at unreadable segment "
                f"{name} ({exc}); its records read as missing",
            )
            return
        for key, record in seg.iter_segment_records(data, name, warn=self._warn):
            if record.get("key") != key:
                continue
            if self._generation_ok(record, f"{name}:{key[:12]}"):
                yield key, record

    def _loose_stream(self) -> "Iterator[tuple[str, dict]]":
        """Yield readable loose ``(key, record)`` pairs in ascending
        filename (= key-prefix) order, one file in memory at a time."""
        for path in sorted(self.loose_paths()):
            record = self._load(path)
            if record is None:
                continue
            if not self._generation_ok(record, path.name):
                continue
            yield str(record.get("key") or path.stem), record

    def records(self) -> "Iterator[dict]":
        """Every readable same-generation record, in ascending key order.

        Iteration order is deterministic -- sorted by each record's
        embedded ``key`` (falling back to the filename for records missing
        one) -- so aggregation built on a store is reproducible across
        filesystems and directory-listing orders.  Unreadable,
        wrong-schema, or foreign ``engine_version`` entries are skipped
        with one warning each (the Monte Carlo draw stream differs
        between generations, so their numbers must never blend into one
        analysis).

        The merge is a *stream*: every backend is already in ascending
        key order (segments frame records sorted; loose filenames are the
        keys), so a heap merge yields globally sorted records with O(1)
        records in memory instead of materializing the whole store dict
        first.  Duplicate keys keep the last arrival of the run -- the
        heap is stable, sources are ordered segments-then-loose, so loose
        wins over sealed and later segments over earlier, exactly the old
        dict-overwrite precedence.
        """
        streams: list = []
        manifest = self._current_manifest()
        if manifest is not None:
            streams.extend(
                self._segment_stream(name) for name in sorted(manifest.segments)
            )
        streams.append(self._loose_stream())
        pending_key: str | None = None
        pending: dict | None = None
        for key, record in heapq.merge(*streams, key=lambda item: item[0]):
            if pending is not None and key != pending_key:
                yield pending
            pending_key, pending = key, record
        if pending is not None:
            yield pending

    # -- bulk analysis fast path -----------------------------------------------

    def analysis_columns(self) -> tuple[list[str], list] | None:
        """Unified analysis columns for the whole store, or None.

        The packed fast path behind ``ResultTable.from_store``.  Each
        sealed segment reads through a two-rung degradation ladder:

        1. **binary sidecar** (``segment-*.cols``), memory-mapped --
           null-free numeric columns come back as zero-copy NumPy views,
           everything else as lazily decoded columns; no JSON parse at
           all;
        2. **tolerant frame scan** -- when the sidecar is missing or
           damaged, salvages whatever records are intact.

        Loose records (if any) are flattened through the same
        :func:`~repro.sweeps.analysis.record_row` used at seal time and
        merged in ascending-key order, so the resulting table -- down to
        its CSV bytes -- is identical to the loose per-file path
        whichever rung served each segment.

        Columns may be NumPy arrays or :class:`~repro.sweeps.segments.
        LazyColumn` objects as well as plain lists; all support ``len``/
        iteration/indexing, and :class:`ResultTable` normalizes to
        pure-Python values at the access boundary.

        Returns None when the store has no usable sealed segments (pure
        loose stores take the classic ``records()`` path).
        """
        from repro.sweeps.analysis import canonical_order, record_row

        manifest = self._current_manifest()
        if manifest is None or not manifest.segments:
            return None

        # One source per readable segment: {keys, columns, first_key,
        # last_key, count}, produced by whichever ladder rung answered.
        sources: list[dict] = []
        for name in sorted(manifest.segments):
            path = self.directory / name
            if not path.exists():
                self._warn(
                    f"{name}:missing",
                    f"sweep store: manifest points at missing segment "
                    f"{name}; its records read as missing "
                    f"(recompact to rebuild the index)",
                )
                continue
            meta = manifest.segments[name]
            if meta.sidecar_length > 0:
                side = seg.read_segment_sidecar(
                    self.directory / seg.sidecar_name(name), meta,
                    warn=self._warn,
                )
                if side is not None:
                    sources.append(side)
                    continue
            try:
                data = path.read_bytes()
            except OSError:
                continue
            rows, keys = [], []
            for key, record in seg.iter_segment_records(data, name, warn=self._warn):
                if record.get("key") == key and self._generation_ok(
                    record, f"{name}:{key[:12]}"
                ):
                    keys.append(key)
                    rows.append(record_row(record))
            if keys:
                names = canonical_order({n for row in rows for n in row})
                sources.append(
                    {
                        "keys": keys,
                        "names": names,
                        "columns": {
                            n: [row.get(n) for row in rows] for n in names
                        },
                        "first_key": keys[0],
                        "last_key": keys[-1],
                        "count": len(keys),
                    }
                )

        loose_rows: list[tuple[str, dict]] = []
        for path in sorted(self.loose_paths()):
            record = self._load(path)
            if record is None or not self._generation_ok(record, path.name):
                continue
            loose_rows.append(
                (str(record.get("key") or path.stem), record_row(record))
            )

        if not sources and not loose_rows:
            return None
        if len(sources) == 1 and not loose_rows:
            # The common compacted-store case: the source's columns are
            # already complete and in ascending key order -- return them
            # as-is (zero-copy views stay views).
            columns = sources[0]["columns"]
            names = canonical_order(columns)
            return names, [columns[n] for n in names]

        if not loose_rows and all(s["count"] > 0 for s in sources):
            # Disjoint-range fast path: merged generations partition the
            # key space, so when the sources' [first_key, last_key]
            # ranges don't overlap, global key order is just the sources
            # laid end to end -- no dedup, no argsort, and each column
            # concatenates lazily (views materialize only when touched).
            ordered = sorted(sources, key=lambda s: s["first_key"])
            if all(
                ordered[i]["last_key"] < ordered[i + 1]["first_key"]
                for i in range(len(ordered) - 1)
            ):
                names = canonical_order(
                    {n for s in ordered for n in s["columns"]}
                )
                total = sum(s["count"] for s in ordered)
                out = []
                for n in names:
                    parts = [
                        (s["columns"].get(n), s["count"]) for s in ordered
                    ]
                    if all(
                        isinstance(column, np.ndarray) for column, _ in parts
                    ) and len({column.dtype for column, _ in parts}) == 1:
                        # All segments served this column as a sidecar
                        # view: one concatenation keeps it an ndarray --
                        # still no JSON parse, and downstream numeric
                        # aggregation stays vectorized.
                        out.append(
                            np.concatenate([column for column, _ in parts])
                        )
                        continue

                    def load(parts=parts) -> list:
                        values: list = []
                        for column, count in parts:
                            if column is None:
                                values.extend([None] * count)
                            else:
                                values.extend(seg.materialize_column(column))
                        return values

                    out.append(seg.LazyColumn(total, load))
                return names, out

        # General merge: later sources win on duplicate keys (loose last),
        # then one argsort permutation restores global key order.
        if loose_rows:
            names = canonical_order(
                {n for s in sources for n in s["columns"]}
                | {n for _, row in loose_rows for n in row}
            )
            sources = sources + [
                {
                    "keys": [key for key, _ in loose_rows],
                    "columns": {
                        n: [row.get(n) for _, row in loose_rows]
                        for n in names
                    },
                }
            ]
        else:
            names = canonical_order({n for s in sources for n in s["columns"]})
        key_lists = [seg.materialize_column(s["keys"]) for s in sources]
        claimed: dict[str, int] = {}
        for index, keys in enumerate(key_lists):
            for key in keys:
                claimed[key] = index
        all_keys: list[str] = []
        concat: dict[str, list] = {n: [] for n in names}
        for index, (keys, source) in enumerate(zip(key_lists, sources)):
            keep = [i for i, key in enumerate(keys) if claimed[key] == index]
            all_keys.extend(keys[i] for i in keep)
            for n in names:
                col = source["columns"].get(n)
                if col is None:
                    concat[n].extend([None] * len(keep))
                else:
                    values = seg.materialize_column(col)
                    concat[n].extend(values[i] for i in keep)
        order = sorted(range(len(all_keys)), key=all_keys.__getitem__)
        return names, [[concat[n][i] for i in order] for n in names]

    # -- compaction ------------------------------------------------------------

    #: Locks older than this are presumed abandoned (a compactor killed
    #: between acquire and release) and are broken by the next compaction.
    _LOCK_STALE_S = 3600.0

    @contextlib.contextmanager
    def _compaction_lock(self) -> "typing.Iterator[bool]":
        """Exclusive advisory lock serializing compactors on one store;
        yields whether it was acquired, and releases it on exit.

        O_CREAT|O_EXCL makes acquisition atomic on any local filesystem.
        Without it, two concurrent compactions (a ``--seal`` sweep plus an
        operator running ``compact``) could each build a manifest from a
        stale read and publish one that omits the other's freshly sealed
        entries -- after the loser already unlinked its loose files, that
        is silent data loss.  Contention is not an error: the caller skips
        compaction and every record simply stays loose.
        """
        lock = self.directory / "COMPACT.lock"
        held = False
        for attempt in (0, 1):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:
                    continue  # holder just released; retry
                if attempt == 0 and age > self._LOCK_STALE_S:
                    _unlink_quietly(lock)
                    continue
                break
            except OSError:
                break
            try:
                os.write(fd, str(os.getpid()).encode("ascii"))
            finally:
                os.close(fd)
            held = True
            break
        try:
            yield held
        finally:
            if held:
                _unlink_quietly(lock)

    def compact(self, keys: "Iterable[str] | None" = None) -> CompactionReport:
        """Seal loose records into a new immutable packed segment.

        Gathers every readable current-generation loose record (or only
        those in ``keys``), writes them -- sorted by key -- into one new
        segment file, publishes the segment with an atomic manifest swap,
        and only then deletes the sealed loose files.  Consequences:

        - **idempotent**: keys already sealed are never resealed; their
          stray loose duplicates are just removed;
        - **kill-safe**: a compactor killed before the manifest swap
          leaves an orphan segment (ignored forever) and every loose file
          intact; killed after the swap, the next pass removes the
          now-duplicate loose files;
        - **safe under concurrent writers**: evaluation workers keep
          writing *other* loose records at any time -- compaction only
          unlinks files it just sealed, and readers switch index
          atomically at the manifest rename.  Concurrent *compactors* are
          serialized by an exclusive lock file; the loser skips (records
          stay loose) rather than risk publishing a stale manifest.

        Unreadable or foreign-generation loose files are skipped, never
        destroyed.

        Publication cost: on a store with a current manifest, the new
        segment is published with one fsynced append to the current
        generation's delta log -- O(new records), not O(store).  Stores
        with no manifest yet, or an unparseable root, get a full
        checkpoint at generation 1 instead.

        A root this engine does not own is refused with one warning and
        every record stays loose: one that parses but that this engine
        cannot read (another manifest version, or malformed fields), or
        one of another schema or engine generation (see
        :meth:`_owns_root`).  Checkpointing over it would orphan every
        segment it indexes for the next merge to delete.
        """
        with self._compaction_lock() as held:
            if not held:
                self._warn_locked()
                return _NOTHING_SEALED
            return self._compact_locked(keys)

    def seal(self, records: "Iterable[tuple[str, dict]]") -> CompactionReport:
        """Seal in-memory ``(key, record)`` pairs straight into a new
        packed segment, writing no loose file.

        The ``--seal`` sweep path: the records a sweep already holds are
        stamped exactly as :meth:`put` stamps them, keys already sealed
        are skipped (their loose twins removed), and the rest are
        published through the same path as :meth:`compact` -- so the
        segment, its sidecar, the manifest and the delta log are
        byte-identical to a ``put`` of every record followed by
        ``compact(keys)``.

        No record is ever lost.  When another process holds the
        compaction lock, when this engine does not own the store's root,
        or when the segment or its publication cannot be written, the
        records are written loose instead, as :meth:`put` would (and a
        failure of *that* raises ``OSError``).  Records are durable only
        once this call returns: callers that need per-record durability
        use :meth:`put`.
        """
        stamped = {key: self._stamped(key, record) for key, record in records}
        if not stamped:
            return _NOTHING_SEALED
        with self._compaction_lock() as held:
            if not held:
                self._warn_locked()
            else:
                # The packer must see records in the form a loose file
                # reads back as (lists, not tuples; plain floats), or the
                # sidecar's column encodings would drift from compact's.
                items = [
                    (key, json.loads(text), self.path(key))
                    for key, text in stamped.items()
                ]
                try:
                    report = self._seal_locked(items)
                except OSError as exc:
                    self._warn(
                        "seal:failed",
                        f"sweep store: could not seal records into "
                        f"{self.directory} ({exc}); writing them loose",
                    )
                    report = None
                if report is not None:
                    return report
        self._spill(stamped)
        return _NOTHING_SEALED

    def _spill(self, stamped: "dict[str, str]") -> None:
        """Write stamped record texts loose, in key order (the fallback of
        :meth:`seal`)."""
        for key in sorted(stamped):
            self._write_loose(key, stamped[key])

    def _warn_locked(self) -> None:
        self._warn(
            "compact:locked",
            f"sweep store: another compaction of {self.directory} is in "
            f"progress; leaving records loose (rerun compact later)",
        )

    def _owned_manifest_locked(self) -> "tuple[seg.Manifest | None, bool]":
        """Re-read the root under the compaction lock (this instance's
        cache may predate another process's compaction) and decide
        whether this engine may publish over it.

        Returns ``(manifest, owned)``: ``manifest`` is None for a store
        without a usable index yet (no root, or an unparseable one), and
        ``owned`` is False -- with one warning -- for a root that parses
        but that this engine cannot read or does not own.
        """
        self._manifest = _UNLOADED
        raw = self.manifest()
        if raw is None and seg.read_root(self.directory) is not None:
            self._warn(
                "compact:unreadable-root",
                f"sweep store: refusing to compact {self.directory} over a "
                f"manifest this engine cannot read; leaving records loose",
            )
            return None, False
        if raw is not None and not self._owns_root(raw):
            self._warn(
                "compact:foreign-root",
                f"sweep store: refusing to compact {self.directory}: its "
                f"manifest belongs to engine {raw.engine_version!r} / "
                f"schema {raw.schema_version!r}; leaving records loose",
            )
            return None, False
        return raw, True

    def _compact_locked(self, keys: "Iterable[str] | None" = None) -> CompactionReport:
        """:meth:`compact` body; caller must hold the compaction lock."""
        wanted = None if keys is None else set(keys)

        # With an explicit key set (the distributed --seal batches), visit
        # only those keys' own files -- the loose filename is derived
        # from the key -- instead of parsing the whole directory per
        # batch, which would make a sealed sweep quadratic in size.
        if wanted is None:
            candidates = sorted(self.loose_paths())
        else:
            candidates = sorted({self.path(key) for key in wanted})

        items: list[tuple[str, dict, Path]] = []
        skipped = 0
        for path in candidates:
            if not path.exists():
                continue
            record = self._load(path)
            if record is None:
                skipped += 1
                continue
            key = record.get("key")
            if not isinstance(key, str) or not key:
                skipped += 1
                continue
            if not self._generation_ok(record, path.name):
                skipped += 1
                continue
            if wanted is not None and key not in wanted:
                continue
            items.append((key, record, path))
        report = self._seal_locked(items)
        if report is None:
            return _NOTHING_SEALED
        return dataclasses.replace(report, skipped=skipped)

    def _seal_locked(
        self, items: "list[tuple[str, dict, Path]]"
    ) -> "CompactionReport | None":
        """Seal ``(key, record, loose path)`` items into one new segment;
        the shared body of :meth:`compact` and :meth:`seal`.  Caller must
        hold the compaction lock.

        Records are stamped and in canonical-JSON form.  Keys the index
        already holds are dropped and their loose ``path`` removed; the
        rest are published, in key order, by :meth:`_publish_locked`.
        Returns None -- publishing nothing -- when this engine does not
        own the store's root (see :meth:`_owned_manifest_locked`).
        Raises ``OSError`` when a write is refused.
        """
        manifest, owned = self._owned_manifest_locked()
        if not owned:
            return None
        sealed_keys = manifest.entries if manifest is not None else {}
        fresh = []
        for item in items:
            if item[0] in sealed_keys:
                _unlink_quietly(item[2])
            else:
                fresh.append(item)
        deduped = len(items) - len(fresh)
        if not fresh:
            return CompactionReport(
                sealed=0, deduped=deduped, skipped=0, segment=None
            )
        fresh.sort(key=lambda item: item[0])
        name = self._publish_locked(
            manifest,
            [record for _, record, _ in fresh],
            stale=[path for _, _, path in fresh],
        )
        return CompactionReport(
            sealed=len(fresh), deduped=deduped, skipped=0, segment=name
        )

    def _publish_locked(
        self,
        manifest: "seg.Manifest | None",
        records: "list[dict]",
        stale: "Iterable[Path]",
    ) -> str:
        """Write ``records`` as one new segment and publish it (the
        publish half of :meth:`_seal_locked`).

        ``records`` are stamped, in canonical-JSON form and in ascending
        key order; ``manifest`` is the owned index re-read under the
        lock the caller holds (None for a store without one).  The
        segment is published with one delta-log append to the current
        generation, or -- without an index -- a full checkpoint at
        generation 1; then the manifest cache is updated and the
        ``stale`` loose twins of the now-sealed keys are unlinked.
        Returns the segment's name.  Raises ``OSError`` when a write is
        refused; nothing is published then, and no loose file is
        touched.
        """
        from repro import __version__

        written = seg.write_segment(self.directory, records)
        if written is None:
            raise OSError(
                f"failed to write packed segment in {self.directory}"
            )
        name, entries, columns = written

        old_entries = dict(manifest.entries) if manifest is not None else {}
        old_segments = dict(manifest.segments) if manifest is not None else {}
        for entry in entries:
            old_entries[entry.key] = entry
        old_segments[name] = columns
        if manifest is not None:
            # O(delta) publish: one fsynced line in the current
            # generation's delta log; the root is untouched.
            if not seg.append_manifest_delta(
                self.directory, manifest.generation, name, entries, columns
            ):
                raise OSError(
                    f"failed to append manifest delta in {self.directory}; "
                    f"loose records were kept"
                )
            new_manifest = seg.Manifest(
                entries=old_entries,
                segments=old_segments,
                schema_version=SCHEMA_VERSION,
                engine_version=__version__,
                generation=manifest.generation,
                shard_count=manifest.shard_count,
                delta_records=manifest.delta_records + 1,
            )
        else:
            # No usable index yet (fresh store or unparseable root): full
            # checkpoint at the first generation.
            new_manifest = seg.Manifest(
                entries=old_entries,
                segments=old_segments,
                schema_version=SCHEMA_VERSION,
                engine_version=__version__,
                generation=1,
                shard_count=len({seg.shard_id(k) for k in old_entries}),
                delta_records=0,
            )
            if not seg.write_manifest(self.directory, new_manifest):
                raise OSError(
                    f"failed to swap manifest in {self.directory}; "
                    f"loose records were kept"
                )
        self._manifest = new_manifest
        for path in stale:
            _unlink_quietly(path)
        return name

    #: Records per generation-tagged segment a merge aims for: large
    #: enough that a 10^5-record store collapses to a dozen-odd segments,
    #: small enough that one segment's bulk read stays cheap.
    DEFAULT_MERGE_TARGET = 8192

    def pending_deltas(self) -> int:
        """Delta-log lines accumulated behind the current root.

        A cheap census for opportunistic-merge triggers (``--merge-every``):
        one small root read plus one newline count over the delta log --
        no shard loads, no delta replay, no manifest cache invalidation.
        Returns 0 for stores without a readable root.
        """
        data = seg.read_root(self.directory)
        if data is None or data.get("manifest_version") != seg.MANIFEST_VERSION:
            return 0
        try:
            generation = int(data.get("generation") or 0)
            delta = str(data.get("delta") or seg.delta_log_name(generation))
        except (TypeError, ValueError):
            return 0
        try:
            raw = (self.directory / seg.MANIFEST_DIR_NAME / delta).read_bytes()
        except OSError:
            return 0
        return raw.count(b"\n")

    def maybe_merge(
        self,
        threshold: int,
        target_records: int | None = None,
        jobs: int | None = None,
    ) -> MergeReport | None:
        """Merge only when the pending delta count has crossed ``threshold``.

        The ``--merge-every N`` primitive: drivers and ``--seal``-ing
        workers call this after each sealed chunk, and whichever caller
        first observes N pending deltas folds them (election is the
        existing exclusive merge lock -- losers skip without warning
        noise, which is why the lock file is pre-checked here instead of
        letting :meth:`merge` warn about perfectly healthy contention).
        Returns the :class:`MergeReport` when a merge ran, else None.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if (self.directory / "COMPACT.lock").exists():
            return None
        if self.pending_deltas() < threshold:
            return None
        return self.merge(target_records=target_records, jobs=jobs)

    def _write_merge_segments(
        self, chunks: list, generation: int, jobs: int | None
    ) -> "Iterator[tuple | None]":
        """Write the merge's output segments, serially or via a pool.

        Caller must hold the compaction lock.  Names are pre-computed
        with the same highest-existing-index scan as
        :func:`~repro.sweeps.segments.generation_segment_namer`, so the
        serial and parallel paths produce identically named (and
        byte-identical) segments; orphans from a previous killed merge
        still count as used.  Pool failures (no fork support, workers
        OOM-killed) fall back to serial writes with freshly scanned
        names, skipping any segments the dead pool already left behind.
        """
        if not chunks:
            return
        namer = seg.generation_segment_namer(generation)
        if jobs is not None and jobs > 1 and len(chunks) > 1:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            first = namer(self.directory)
            base = int(first[len(f"segment-g{generation:04d}-") : -len(".seg")])
            names = [
                f"segment-g{generation:04d}-{base + index:06d}.seg"
                for index in range(len(chunks))
            ]
            try:
                with ProcessPoolExecutor(
                    max_workers=min(jobs, len(chunks))
                ) as pool:
                    # Collected eagerly: a pool that breaks mid-map must
                    # leave *nothing* yielded, so the serial fallback
                    # rewrites every chunk exactly once (the dead pool's
                    # finished segments become orphans, collected by the
                    # next merge's GC).
                    results = list(
                        pool.map(
                            _merge_chunk,
                            [str(self.directory)] * len(chunks),
                            chunks,
                            names,
                        )
                    )
            except (OSError, BrokenProcessPool):
                self._warn(
                    "merge:pool",
                    f"sweep store: parallel merge pool failed for "
                    f"{self.directory}; falling back to serial rewrites",
                )
            else:
                yield from results
                return
        for chunk in chunks:
            yield seg.write_segment(self.directory, chunk, namer=namer)

    def merge(
        self,
        target_records: int | None = None,
        jobs: int | None = None,
    ) -> MergeReport:
        """Fold the store down to one fresh generation: seal loose records,
        rewrite every live segment into large generation-tagged
        ``segment-gGGGG-NNNNNN.seg`` files, checkpoint the manifest (delta
        log folded into new shards), and garbage-collect everything the
        new root no longer references.

        Properties:

        - **idempotent**: a store already at a single generation with an
          empty delta log is rewritten zero times (``merged=0``); only GC
          of stray orphans runs.
        - **kill-safe at every point**: new segments and shards are
          invisible until the atomic root swap; a merge killed before the
          swap leaves only orphans (collected by the next merge), killed
          after it leaves only superseded files (same).  Every key reads
          identically before, during, and after for a reader that loads
          the root after the swap; a reader still holding the previous
          root (a store object whose manifest was loaded before it) sees
          that root's records as missing once GC unlinks its files.
        - **concurrent-compactor-safe**: serialized by the same exclusive
          lock as :meth:`compact`; the loser skips.

        ``jobs`` > 1 rewrites the output segments through a process pool
        (names pre-computed under the lock, so workers never race each
        other's directory scans).  Each segment write is independently
        atomic and invisible until the single checkpoint swap at the end,
        so the parallel path is kill-safe at exactly the same points as
        the serial one and converges on a byte-identical store; a pool
        that cannot start or dies mid-rewrite falls back to the serial
        path (re-reserving fresh segment names past any orphans the dead
        workers left -- the next merge collects those).

        An unreadable root, or a foreign-generation one (older engine/
        schema), is refused whole: merging would garbage-collect data this
        engine cannot re-read.
        """
        from repro import __version__

        target = target_records or self.DEFAULT_MERGE_TARGET
        if target <= 0:
            raise ValueError(f"target_records must be positive, got {target}")
        if jobs is not None and jobs <= 0:
            raise ValueError(f"jobs must be positive, got {jobs}")
        with self._compaction_lock() as held:
            if not held:
                self._warn(
                    "merge:locked",
                    f"sweep store: another compaction of {self.directory} "
                    f"is in progress; skipping merge (rerun later)",
                )
                return MergeReport(
                    sealed=0, merged=0, segments=0, generation=0,
                    gc_segments=0, gc_manifest=0,
                )
            self._manifest = _UNLOADED
            root_exists = (self.directory / seg.MANIFEST_NAME).exists()
            raw = self.manifest()
            if root_exists and raw is None:
                # GC against an index this engine cannot read would
                # delete every segment it points at.
                self._warn(
                    "merge:unreadable-root",
                    f"sweep store: refusing to merge {self.directory} over "
                    f"a manifest this engine cannot read",
                )
                return MergeReport(
                    sealed=0, merged=0, segments=0, generation=0,
                    gc_segments=0, gc_manifest=0,
                )
            if raw is not None and not self._owns_root(raw):
                self._warn(
                    "merge:foreign-root",
                    f"sweep store: refusing to merge {self.directory}: its "
                    f"manifest belongs to engine {raw.engine_version!r} / "
                    f"schema {raw.schema_version!r} (this engine cannot "
                    f"re-read what merge would garbage-collect)",
                )
                return MergeReport(
                    sealed=0, merged=0, segments=0,
                    generation=raw.generation,
                    gc_segments=0, gc_manifest=0,
                )

            sealed = self._compact_locked(None).sealed
            manifest = self._current_manifest()
            if manifest is None:
                # Nothing loose, nothing sealed: an empty store.
                return MergeReport(
                    sealed=sealed, merged=0, segments=0, generation=0,
                    gc_segments=0, gc_manifest=0,
                )

            needs_rewrite = (
                manifest.delta_records > 0
                or any(
                    seg.segment_generation(name) != manifest.generation
                    for name in manifest.segments
                )
            )
            merged = 0
            new_segments_written = 0
            if needs_rewrite:
                # Bulk-read every live record, grouped by segment (one
                # file read per segment, never per record).
                records_by_key: dict[str, dict] = {}
                for name in sorted(manifest.segments):
                    path = self.directory / name
                    try:
                        data = path.read_bytes()
                    except OSError as exc:
                        self._warn(
                            f"{name}:missing",
                            f"sweep store: manifest points at unreadable "
                            f"segment {name} ({exc}); its records read as "
                            f"missing",
                        )
                        continue
                    for key, record in seg.iter_segment_records(
                        data, name, warn=self._warn
                    ):
                        entry = manifest.entries.get(key)
                        if entry is None or entry.segment != name:
                            continue
                        if record.get("key") != key:
                            continue
                        if self._generation_ok(record, f"{name}:{key[:12]}"):
                            records_by_key[key] = record
                lost = len(manifest.entries) - len(records_by_key)
                if lost:
                    self._warn(
                        "merge:unreadable-records",
                        f"sweep store: {lost} sealed record(s) of "
                        f"{self.directory} are unreadable and stay missing "
                        f"after the merge (they already read as missing)",
                    )

                new_generation = manifest.generation + 1
                ordered = sorted(records_by_key)
                chunks = [
                    [records_by_key[k] for k in ordered[start : start + target]]
                    for start in range(0, len(ordered), target)
                ]
                new_entries: dict = {}
                new_cols: dict = {}
                for written in self._write_merge_segments(
                    chunks, new_generation, jobs
                ):
                    if written is None:
                        raise OSError(
                            f"failed to write merged segment in {self.directory}"
                        )
                    name, entries, columns = written
                    for entry in entries:
                        new_entries[entry.key] = entry
                    new_cols[name] = columns
                manifest = seg.Manifest(
                    entries=new_entries,
                    segments=new_cols,
                    schema_version=SCHEMA_VERSION,
                    engine_version=__version__,
                    generation=new_generation,
                    shard_count=len({seg.shard_id(k) for k in new_entries}),
                    delta_records=0,
                )
                if not seg.write_manifest(self.directory, manifest):
                    raise OSError(
                        f"failed to checkpoint manifest in {self.directory}; "
                        f"the previous generation is untouched"
                    )
                self._manifest = manifest
                merged = len(ordered)
                new_segments_written = len(new_cols)

            gc_segments, gc_manifest = seg.gc_unreferenced(
                self.directory, manifest, warn=self._warn
            )
            return MergeReport(
                sealed=sealed,
                merged=merged,
                segments=new_segments_written,
                generation=manifest.generation,
                gc_segments=gc_segments,
                gc_manifest=gc_manifest,
            )

    # -- maintenance -----------------------------------------------------------

    def clear(self) -> None:
        """Delete every record file, segment, lease, and the manifest."""
        for path in list(self.loose_paths()):
            try:
                path.unlink()
            except OSError:
                pass
        for pattern in (seg.SEGMENT_PATTERN, seg.SIDECAR_PATTERN):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        if self.lease_dir.is_dir():
            # Leases plus any crash-orphaned reclaim/release tombstones.
            for path in list(self.lease_dir.iterdir()):
                try:
                    path.unlink()
                except OSError:
                    pass
        self.prune_lease_dir()
        try:
            (self.directory / seg.MANIFEST_NAME).unlink()
        except OSError:
            pass
        manifest_dir = self.directory / seg.MANIFEST_DIR_NAME
        if manifest_dir.is_dir():
            for path in list(manifest_dir.iterdir()):
                try:
                    path.unlink()
                except OSError:
                    pass
            try:
                manifest_dir.rmdir()
            except OSError:
                pass
        self._manifest = _UNLOADED
        # A cleared store is new data: re-arm its warning dedup so problems
        # in the directory's next life are reported afresh.
        scope = str(self.directory)
        for entry in [e for e in _WARNED if e[0] == scope]:
            _WARNED.discard(entry)


def _unlink_quietly(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _merge_chunk(directory: str, records: list, name: str) -> tuple | None:
    """One parallel-merge pool task: write one pre-named output segment.

    Module-level so it pickles into spawn-start pools.  Returns what
    :func:`~repro.sweeps.segments.write_segment` returns; publication
    stays entirely with the parent, so a worker killed here leaves only
    an orphan file.
    """
    return seg.write_segment(Path(directory), records, name=name)
