"""Packed append-only segment files behind :class:`~repro.sweeps.store.SweepStore`.

One JSON file per scenario is ideal for resume (atomic, content-addressed,
safe under concurrent writers) but pathological to *load*: a million-record
analysis pays a million ``open``/``read``/``parse`` round trips.  This
module packs finished records into immutable, checksummed **segments** so a
full-store load is O(segments) bulk reads while every resume guarantee of
the loose format survives untouched.

Segment layout (``segment-NNNNNN.seg``, UTF-8 bytes)::

    SEG reproseg <format> <schema_version> <engine_version>\\n   header
    REC <key> <nbytes> <checksum16>\\n                           one frame
    <payload bytes>\\n                                             per record
    ...
    END <count> <keys_checksum16>\\n                             seal footer

- Every **record frame** carries the full record payload in the store's
  canonical JSON bytes (:func:`repro.core.serialize.canonical_dumps`), so a
  random-access read returns exactly the dict the loose file held --
  ``--resume`` stays byte-for-byte exact.
- The **footer** seals the segment.  A missing or malformed footer, a
  truncated tail, or a frame whose checksum disagrees degrades to
  *missing-with-warning* for the affected records -- exactly how a
  half-written loose file reads -- and never crashes ``--resume`` or
  ``analyze``.

Segments are immutable once written (atomic tmp + rename) and are only
reachable through the **manifest**, which maps every sealed key to
``(segment, offset, length, checksum)``.  Compaction writes new segment
files first and publishes them only afterwards, so readers and concurrent
loose-record writers never observe a partial compaction; a compactor
killed between the two steps leaves an orphan segment file that is simply
never referenced (and is garbage-collected by the next merge).

Manifest format v2 (``MANIFEST_VERSION = 2``) splits the index into three
pieces so publishing N new records costs O(N), not O(store):

- the **root** (``MANIFEST.json``) -- a small atomically-swapped JSON file
  carrying the store *generation*, the schema/engine stamp, the segment
  census, and a pointer per key-prefix **shard**;
- the **shards** (``manifest/shard-gGGGG-X.json``) -- the key -> entry
  mapping partitioned by the first hex character of the key (16 shards),
  each checksummed from the root so a corrupt shard degrades only its own
  keys to missing-with-warning;
- the **delta log** (``manifest/delta-gGGGG.log``) -- an append-only,
  fsynced journal of segments published since the last checkpoint, one
  ``D <checksum16> <canonical-json>`` line per segment.  Readers replay it
  over the shard contents; a torn or corrupt line is skipped with a
  warning (its segment stays orphaned until the next merge).

Each sealed segment is shadowed by a **binary columnar sidecar**
(``segment-*.cols``), the store's one columnar format: the segment's
records flattened to the unified analysis row schema
(:func:`repro.sweeps.analysis.record_row`) and encoded as checksummed
little-endian typed arrays (int64/float64 + null bitmaps, offset-indexed
UTF-8 string pools) that ``analysis_columns()`` memory-maps and serves as
zero-copy NumPy views -- no JSON parse at all on the bulk-read path.
Sidecars are strictly an acceleration layer: they are registered in the
manifest (``sidecar_length``/``sidecar_checksum``), and a corrupt or
missing sidecar degrades to the tolerant frame scan through the same
warn-once ladder as every other corruption, serving the same CSV bytes.

A **checkpoint** (:func:`write_manifest`) folds everything into fresh
shard files at a new generation and swaps the root -- the swap is the only
commit point.  **Merging**
(:meth:`~repro.sweeps.store.SweepStore.merge`) rewrites small segments
into large generation-tagged ``segment-gGGGG-NNNNNN.seg`` files,
checkpoints, and garbage-collects everything the new root no longer
references.  A root of any other manifest version reads as unsupported.

Compaction is equally safe under concurrent distributed *claimers*
(:mod:`repro.sweeps.distributed`): lease files live in the store's
``leases/`` subdirectory, outside both the loose-record glob and the
segment/manifest namespace, so sealing neither sees nor disturbs
outstanding claims -- and a ``--seal``-ing worker whose keyed compaction
loses the compactor lock simply leaves those records loose for a later
pass.

The byte-level layout of every structure here is specified normatively in
``docs/store-format.md``.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import struct
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.serialize import canonical_dumps, short_checksum
from repro.pipeline.cache import atomic_write_bytes

if typing.TYPE_CHECKING:
    from collections.abc import Callable, Iterator, Mapping, Sequence

__all__ = [
    "MANIFEST_DIR_NAME",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "SEGMENT_FORMAT_VERSION",
    "SEGMENT_MAGIC",
    "SEGMENT_PATTERN",
    "SHARD_IDS",
    "SIDECAR_FORMAT_VERSION",
    "SIDECAR_MAGIC",
    "SIDECAR_PATTERN",
    "LazyColumn",
    "Manifest",
    "SegmentColumns",
    "SegmentEntry",
    "append_manifest_delta",
    "delta_log_name",
    "gc_unreferenced",
    "generation_segment_namer",
    "iter_segment_records",
    "load_manifest",
    "materialize_column",
    "next_segment_name",
    "pack_segment",
    "pack_sidecar",
    "read_root",
    "read_segment_record",
    "read_segment_sidecar",
    "segment_generation",
    "shard_file_name",
    "shard_id",
    "sidecar_name",
    "write_manifest",
    "write_segment",
]

SEGMENT_MAGIC = "reproseg"
SEGMENT_FORMAT_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 2
SEGMENT_PATTERN = "segment-*.seg"

SIDECAR_MAGIC = "reprocols"
SIDECAR_FORMAT_VERSION = 1
SIDECAR_PATTERN = "segment-*.cols"

#: Subdirectory holding manifest shards and delta logs (outside both the
#: loose-record ``*.json`` glob and the segment namespace).
MANIFEST_DIR_NAME = "manifest"

#: The 16 key-prefix shard identifiers (first hex character of the key).
SHARD_IDS = "0123456789abcdef"

#: A ``warn(dedup_key, message)`` sink; the store passes its deduplicating
#: warner so one bad file warns once per store, not once per access.
WarnFn = "Callable[[str, str], None]"


def _default_warn(dedup_key: str, message: str) -> None:
    warnings.warn(message, RuntimeWarning, stacklevel=4)


@dataclass(frozen=True)
class SegmentEntry:
    """Manifest pointer to one sealed record: where and what to verify.

    ``offset``/``length`` bound the payload bytes inside ``segment``;
    ``checksum`` is :func:`~repro.core.serialize.short_checksum` of exactly
    those bytes.
    """

    key: str
    segment: str
    offset: int
    length: int
    checksum: str


@dataclass(frozen=True)
class SegmentColumns:
    """Manifest census of one segment: its record count and its binary
    columnar sidecar (``segment-*.cols``).

    A ``sidecar_length`` of 0 means "no sidecar" (its write failed, or
    the segment predates sidecars); readers then take the frame scan.
    """

    count: int
    sidecar_length: int = 0
    sidecar_checksum: str = ""


@dataclass(frozen=True)
class Manifest:
    """The store's sealed-record index, committed by an atomic root swap.

    Attributes:
        entries: key -> :class:`SegmentEntry` for every sealed record.
        segments: segment filename -> :class:`SegmentColumns`.
        schema_version: record schema the sealed records were written under.
        engine_version: package version that sealed them (sealed records
            are generation-checked exactly like loose ones).
        generation: checkpoint counter; bumped by every checkpoint
            (:func:`write_manifest`), left alone by delta appends.
        shard_count: non-empty key-prefix shards behind the root.
        delta_records: delta-log lines replayed on top of the checkpoint
            (0 right after a checkpoint; what :meth:`SweepStore.merge`
            folds down).
    """

    entries: dict
    segments: dict
    schema_version: int
    engine_version: str
    generation: int = 0
    shard_count: int = 0
    delta_records: int = 0


def shard_id(key: str) -> str:
    """Key-prefix shard of ``key`` (one of :data:`SHARD_IDS`).

    Store keys are SHA-256 hex, so the first character partitions them
    uniformly; any non-hex key (hand-written test keys) is bucketed by the
    first character of its checksum instead, which keeps every key in
    exactly one of the 16 shards.
    """
    first = key[:1].lower()
    if first in SHARD_IDS:
        return first
    return short_checksum(key)[0]


def shard_file_name(generation: int, sid: str) -> str:
    """Shard file name inside ``manifest/`` for one generation."""
    return f"shard-g{generation:04d}-{sid}.json"


def delta_log_name(generation: int) -> str:
    """Delta-log file name inside ``manifest/`` for one generation."""
    return f"delta-g{generation:04d}.log"


def segment_generation(name: str) -> int:
    """Generation a segment file name was merged at (0 for unmerged
    ``segment-NNNNNN.seg`` compaction output)."""
    match = re.match(r"segment-g(\d+)-\d+\.seg$", name)
    return int(match.group(1)) if match else 0


# -- binary columnar sidecars --------------------------------------------------
#
# Sidecar layout (``segment-*.cols``, little-endian throughout)::
#
#     COLS reprocols <format>\n          ASCII magic line
#     <u32 header_length>                4 bytes, little-endian
#     <header bytes>                     canonical JSON, UTF-8
#     <zero padding to 8-byte alignment>
#     <payload buffers>                  each 8-byte aligned
#
# The header maps every analysis column (plus the key column) to a typed
# buffer spec ``{"kind", "data": [offset, length], ...}`` with offsets
# relative to the payload base.  Kinds: ``i8`` int64, ``f8`` float64,
# ``b1`` uint8 bools, ``s`` offset-indexed UTF-8 string pool (int64
# offsets, N+1 of them), ``j`` canonical-JSON list (mixed/exotic types),
# ``z`` all-None.  An optional ``nulls`` buffer is a little-endian-packed
# bitmap (1 = None).  The whole file is covered by the manifest's
# ``sidecar_checksum``, so readers verify once and then trust every
# buffer.  Full normative spec in ``docs/store-format.md``.

def sidecar_name(segment_name: str) -> str:
    """The binary columnar sidecar file backing one segment file."""
    if segment_name.endswith(".seg"):
        return segment_name[: -len(".seg")] + ".cols"
    return segment_name + ".cols"


class LazyColumn:
    """A sequence over one sidecar column, decoded on first access.

    Length is known up front (cheap ``len()`` for shape checks); the
    values decode once through ``load`` and are cached.  ``materialize``
    always returns pure-Python values (never NumPy scalars), which is
    what keeps downstream ``ResultTable`` aggregation and CSV bytes
    identical to the frame-scan path.
    """

    __slots__ = ("_length", "_load", "_values")

    def __init__(self, length: int, load: "Callable[[], list]") -> None:
        self._length = length
        self._load = load
        self._values: list | None = None

    def materialize(self) -> list:
        if self._values is None:
            self._values = self._load()
            self._load = None  # type: ignore[assignment]
        return self._values

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return iter(self.materialize())

    def __getitem__(self, index):
        return self.materialize()[index]


def materialize_column(values) -> list:
    """Normalize any column representation to a plain Python list.

    ``LazyColumn`` decodes (cached), NumPy arrays convert through
    ``tolist()`` (yielding pure-Python scalars -- ``np.int64`` is *not*
    an ``int`` to ``isinstance``, which would break sort tokens and CSV
    formatting downstream), and lists pass through.
    """
    mat = getattr(values, "materialize", None)
    if mat is not None:
        return mat()
    tolist = getattr(values, "tolist", None)
    if tolist is not None:
        return tolist()
    return values if isinstance(values, list) else list(values)


def pack_sidecar(
    keys: "Sequence[str]", names: "Sequence[str]", columns: "Mapping[str, list]"
) -> bytes:
    """Encode one segment's analysis columns as binary sidecar bytes.

    Deterministic for a given block (keys first, then columns in ``names``
    order), so re-sealing the same records yields byte-identical sidecars.
    Raises on anything unencodable (callers then publish the segment
    without a sidecar; its record frames remain authoritative).
    """
    count = len(keys)
    payload = bytearray()

    def add(blob: bytes) -> list[int]:
        pad = (-len(payload)) % 8
        payload.extend(b"\x00" * pad)
        offset = len(payload)
        payload.extend(blob)
        return [offset, len(blob)]

    def null_bitmap(values: list) -> bytes | None:
        mask = np.array([v is None for v in values], dtype=np.uint8)
        if not mask.any():
            return None
        return np.packbits(mask, bitorder="little").tobytes()

    def encode(values: list) -> dict:
        present = [v for v in values if v is not None]
        if not present:
            return {"kind": "z"}
        kinds = {type(v) for v in present}
        nulls = null_bitmap(values)
        if kinds == {bool}:
            data = np.array(
                [bool(v) for v in values], dtype=np.uint8
            ).tobytes()
            spec = {"kind": "b1", "data": add(data)}
        elif kinds == {int} and all(
            -(2**63) <= v < 2**63 for v in present
        ):
            data = np.array(
                [0 if v is None else v for v in values], dtype="<i8"
            ).tobytes()
            spec = {"kind": "i8", "data": add(data)}
        elif kinds == {float}:
            data = np.array(
                [0.0 if v is None else v for v in values], dtype="<f8"
            ).tobytes()
            spec = {"kind": "f8", "data": add(data)}
        elif kinds == {str}:
            blobs = [
                b"" if v is None else v.encode("utf-8") for v in values
            ]
            offsets = np.zeros(len(values) + 1, dtype="<i8")
            np.cumsum([len(b) for b in blobs], out=offsets[1:])
            spec = {
                "kind": "s",
                "offsets": add(offsets.tobytes()),
                "data": add(b"".join(blobs)),
            }
        else:
            # Mixed int/float, big ints, nested values: fall back to one
            # canonical-JSON list, which is exact for any JSON value
            # (nulls included).
            blob = canonical_dumps(list(values)).encode("utf-8")
            return {"kind": "j", "data": add(blob)}
        if nulls is not None:
            spec["nulls"] = add(nulls)
        return spec

    header = {
        "count": count,
        "first_key": str(keys[0]) if count else "",
        "last_key": str(keys[-1]) if count else "",
        "keys": encode([str(k) for k in keys]),
        "names": list(names),
        "columns": {name: encode(list(columns[name])) for name in names},
    }
    head = canonical_dumps(header).encode("utf-8")
    magic = f"COLS {SIDECAR_MAGIC} {SIDECAR_FORMAT_VERSION}\n".encode("ascii")
    prefix = magic + struct.pack("<I", len(head)) + head
    return prefix + b"\x00" * ((-len(prefix)) % 8) + bytes(payload)


def read_segment_sidecar(
    path: Path, columns: SegmentColumns, warn: "WarnFn" = _default_warn
) -> dict | None:
    """mmap one segment's binary sidecar into zero-copy analysis columns.

    Verifies the whole file against the manifest's ``sidecar_checksum``
    once, then serves columns straight from the mapping: null-free
    numeric columns come back as NumPy array *views* over the mmap (no
    copy, no parse), everything else as a :class:`LazyColumn` that
    decodes on first touch.  Returns ``{"keys", "names", "columns",
    "first_key", "last_key", "count"}``, or None (with one warning) on
    any integrity or decode failure -- callers then fall back to the
    frame scan: the same degradation ladder every other corruption takes.
    """
    if columns.sidecar_length <= 0:
        return None
    name = path.name
    try:
        with open(path, "rb") as handle:
            try:
                data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                data = handle.read()
    except OSError as exc:
        warn(
            f"{name}:sidecar",
            f"sweep store: columnar sidecar {name} is unreadable ({exc}); "
            f"falling back to the record frames",
        )
        return None
    if (
        len(data) != columns.sidecar_length
        or short_checksum(data) != columns.sidecar_checksum
    ):
        warn(
            f"{name}:sidecar",
            f"sweep store: columnar sidecar {name} fails its checksum; "
            f"falling back to the record frames",
        )
        return None
    try:
        magic = f"COLS {SIDECAR_MAGIC} {SIDECAR_FORMAT_VERSION}".encode("ascii")
        line_end = data.find(b"\n")
        if line_end < 0 or bytes(data[:line_end]) != magic:
            raise ValueError("bad sidecar magic")
        (head_length,) = struct.unpack(
            "<I", bytes(data[line_end + 1 : line_end + 5])
        )
        head_start = line_end + 5
        header = json.loads(bytes(data[head_start : head_start + head_length]))
        base = head_start + head_length
        base += (-base) % 8
        count = int(header["count"])

        def null_mask(spec: dict):
            offset, length = spec["nulls"]
            bits = np.frombuffer(
                data, dtype=np.uint8, count=length, offset=base + offset
            )
            return np.unpackbits(bits, bitorder="little", count=count)

        def apply_nulls(values: list, spec: dict) -> list:
            if "nulls" not in spec:
                return values
            mask = null_mask(spec).tolist()
            return [None if m else v for v, m in zip(values, mask)]

        def decode(spec: dict):
            kind = spec["kind"]
            if kind == "z":
                return LazyColumn(count, lambda: [None] * count)
            offset, length = spec["data"]
            if kind in ("i8", "f8"):
                array = np.frombuffer(
                    data,
                    dtype="<i8" if kind == "i8" else "<f8",
                    count=count,
                    offset=base + offset,
                )
                if "nulls" not in spec:
                    return array  # the zero-copy fast path
                return LazyColumn(
                    count, lambda: apply_nulls(array.tolist(), spec)
                )
            if kind == "b1":
                array = np.frombuffer(
                    data, dtype=np.uint8, count=count, offset=base + offset
                )
                return LazyColumn(
                    count,
                    lambda: apply_nulls(
                        [bool(v) for v in array.tolist()], spec
                    ),
                )
            if kind == "s":
                ooffset, _ = spec["offsets"]

                def load_strings() -> list:
                    bounds = np.frombuffer(
                        data, dtype="<i8", count=count + 1,
                        offset=base + ooffset,
                    ).tolist()
                    pool = bytes(data[base + offset : base + offset + length])
                    values = [
                        pool[bounds[i] : bounds[i + 1]].decode("utf-8")
                        for i in range(count)
                    ]
                    return apply_nulls(values, spec)

                return LazyColumn(count, load_strings)
            if kind == "j":
                return LazyColumn(
                    count,
                    lambda: list(
                        json.loads(
                            bytes(data[base + offset : base + offset + length])
                        )
                    ),
                )
            raise ValueError(f"unknown sidecar column kind {kind!r}")

        return {
            "keys": decode(header["keys"]),
            "names": list(header["names"]),
            "columns": {
                n: decode(spec) for n, spec in header["columns"].items()
            },
            "first_key": str(header.get("first_key", "")),
            "last_key": str(header.get("last_key", "")),
            "count": count,
        }
    except (KeyError, IndexError, TypeError, ValueError, struct.error,
            json.JSONDecodeError, UnicodeDecodeError):
        warn(
            f"{name}:sidecar",
            f"sweep store: columnar sidecar {name} is malformed; "
            f"falling back to the record frames",
        )
        return None


# -- segment encoding ----------------------------------------------------------


def pack_segment(
    records: "Sequence[dict]",
) -> tuple[bytes, list[tuple[str, int, int, str]], dict]:
    """Encode sealed ``records`` into one segment byte blob.

    Records must already be store-stamped (``key``/``schema_version``/
    ``engine_version`` present) and are framed in the given order; callers
    sort by key first so a sealed segment's frames -- and its sidecar
    columns -- are in ascending key order.

    Returns ``(blob, frames, block)`` where ``frames`` holds one
    ``(key, payload_offset, payload_length, checksum)`` tuple per record
    and ``block`` is the ``{"keys", "names", "columns"}`` columnar mapping
    of the records' analysis rows (what :func:`pack_sidecar` encodes).
    """
    from repro import __version__
    from repro.sweeps.analysis import record_row, canonical_order
    from repro.sweeps.store import SCHEMA_VERSION

    parts: list[bytes] = []
    frames: list[tuple[str, int, int, str]] = []
    header = (
        f"SEG {SEGMENT_MAGIC} {SEGMENT_FORMAT_VERSION} "
        f"{SCHEMA_VERSION} {__version__}\n"
    ).encode("utf-8")
    parts.append(header)
    pos = len(header)
    keys: list[str] = []
    for record in records:
        key = str(record["key"])
        payload = canonical_dumps(record).encode("utf-8")
        checksum = short_checksum(payload)
        frame_header = f"REC {key} {len(payload)} {checksum}\n".encode("utf-8")
        parts.append(frame_header)
        pos += len(frame_header)
        frames.append((key, pos, len(payload), checksum))
        parts.append(payload)
        parts.append(b"\n")
        pos += len(payload) + 1
        keys.append(key)

    rows = [record_row(record) for record in records]
    names = canonical_order({name for row in rows for name in row})
    block = {
        "keys": keys,
        "names": names,
        "columns": {n: [row.get(n) for row in rows] for n in names},
    }
    keys_checksum = short_checksum(",".join(keys))
    parts.append(f"END {len(keys)} {keys_checksum}\n".encode("utf-8"))
    return b"".join(parts), frames, block


def next_segment_name(directory: Path) -> str:
    """First unused ``segment-NNNNNN.seg`` name (orphans count as used).

    Generation-tagged merge output (``segment-gGGGG-NNNNNN.seg``) lives in
    its own numbering space (:func:`generation_segment_namer`) and is
    ignored here.
    """
    highest = 0
    for path in directory.glob(SEGMENT_PATTERN):
        stem = path.name[len("segment-") : -len(".seg")]
        if stem.isdigit():
            highest = max(highest, int(stem))
    return f"segment-{highest + 1:06d}.seg"


def generation_segment_namer(generation: int) -> "Callable[[Path], str]":
    """A :func:`write_segment` namer for one merge generation's output.

    Numbers ``segment-gGGGG-NNNNNN.seg`` sequentially per generation;
    orphans from a merge killed before its checkpoint count as used, so a
    re-merge at the same target generation never collides with them.
    """
    prefix = f"segment-g{generation:04d}-"

    def namer(directory: Path) -> str:
        highest = 0
        for path in directory.glob(f"{prefix}*.seg"):
            stem = path.name[len(prefix) : -len(".seg")]
            if stem.isdigit():
                highest = max(highest, int(stem))
        return f"{prefix}{highest + 1:06d}.seg"

    return namer


def write_segment(
    directory: Path,
    records: "Sequence[dict]",
    namer: "Callable[[Path], str] | None" = None,
    name: str | None = None,
) -> tuple[str, list[SegmentEntry], SegmentColumns] | None:
    """Pack ``records`` and write them as a new immutable segment file.

    The write is atomic (tmp + rename); the segment is *not* yet visible to
    readers -- it becomes reachable only when the caller publishes it in
    the manifest.  The name (``namer`` defaults to plain compaction
    numbering, merge passes :func:`generation_segment_namer`; a parallel
    merge passes an explicit pre-computed ``name`` so its pool workers
    never race each other's directory scans) is reserved with an exclusive
    create first, so even a rogue second compactor (possible only after a
    stale lock was force-broken) can never overwrite an existing segment.
    Returns None when the filesystem refuses the write (or an explicit
    ``name`` already exists).

    The segment's binary columnar sidecar is written beside it and its
    length/checksum stamped into the returned :class:`SegmentColumns`; a
    sidecar failure publishes the segment without one -- the record
    frames are always authoritative.
    """
    blob, frames, block = pack_segment(records)
    if name is not None:
        try:
            (directory / name).touch(exist_ok=False)
        except OSError:
            return None
    else:
        for _ in range(1000):
            candidate = (namer or next_segment_name)(directory)
            try:
                (directory / candidate).touch(exist_ok=False)
            except FileExistsError:
                continue
            except OSError:
                return None
            name = candidate
            break
        if name is None:
            return None
    if not atomic_write_bytes(directory / name, blob):
        return None
    columns = SegmentColumns(count=len(frames))
    try:
        side = pack_sidecar(block["keys"], block["names"], block["columns"])
    except (OverflowError, TypeError, ValueError):
        side = None
    # The sidecar write goes through the same atomic_write_bytes as every
    # other durable write, so crash-injection harnesses cover it; a plain
    # failure (False) just publishes without a sidecar.
    if side is not None and atomic_write_bytes(
        directory / sidecar_name(name), side
    ):
        columns = SegmentColumns(
            count=len(frames),
            sidecar_length=len(side),
            sidecar_checksum=short_checksum(side),
        )
    entries = [
        SegmentEntry(key=k, segment=name, offset=o, length=n, checksum=c)
        for k, o, n, c in frames
    ]
    return name, entries, columns


# -- segment decoding ----------------------------------------------------------


def _read_line(data: bytes, pos: int) -> tuple[str, int] | None:
    """Decode one ``\\n``-terminated ASCII line at ``pos``; None at EOF or
    on an unterminated (truncated) tail."""
    end = data.find(b"\n", pos)
    if end < 0:
        return None
    try:
        return data[pos:end].decode("utf-8"), end + 1
    except UnicodeDecodeError:
        return None


def iter_segment_records(
    data: bytes, source: str, warn: "WarnFn" = _default_warn
) -> "Iterator[tuple[str, dict]]":
    """Yield every intact ``(key, record)`` of one segment's bytes.

    Tolerant by design: a malformed header drops the whole segment, a
    corrupt or truncated frame drops that record *and everything after it*
    (framing can no longer be trusted), and a checksum mismatch drops just
    that record -- each with one warning through ``warn``.  Whatever
    prefix of the segment survives reads normally, mirroring how a
    half-written loose file degrades to missing-with-warning.
    """
    line = _read_line(data, 0)
    if line is None or not line[0].startswith(f"SEG {SEGMENT_MAGIC} "):
        warn(
            f"{source}:header",
            f"sweep store: segment {source} has no valid header; "
            f"treating its records as missing",
        )
        return
    header, pos = line
    fields = header.split()
    if len(fields) < 3 or fields[2] != str(SEGMENT_FORMAT_VERSION):
        warn(
            f"{source}:format",
            f"sweep store: segment {source} has unsupported format "
            f"{fields[2] if len(fields) > 2 else '?'!r} "
            f"(expected {SEGMENT_FORMAT_VERSION}); treating its records as missing",
        )
        return
    while True:
        line = _read_line(data, pos)
        if line is None:
            warn(
                f"{source}:truncated",
                f"sweep store: segment {source} is truncated before its "
                f"seal footer; records past the damage read as missing",
            )
            return
        text, pos = line
        if text.startswith("END "):
            return
        if text.startswith("COL "):
            # Segments sealed by older engines carry a JSON columnar
            # block before the footer; skip it.
            parts = text.split()
            if len(parts) != 3 or not parts[1].isdigit():
                warn(
                    f"{source}:columns-frame",
                    f"sweep store: segment {source} has a malformed "
                    f"columnar frame; remainder unreadable",
                )
                return
            pos += int(parts[1]) + 1
            continue
        parts = text.split()
        if len(parts) != 4 or parts[0] != "REC" or not parts[2].isdigit():
            warn(
                f"{source}:frame@{pos}",
                f"sweep store: segment {source} has a corrupt record frame; "
                f"records past the damage read as missing",
            )
            return
        _, key, length_text, checksum = parts
        length = int(length_text)
        payload = data[pos : pos + length]
        if len(payload) < length:
            warn(
                f"{source}:truncated",
                f"sweep store: segment {source} is truncated mid-record; "
                f"records past the damage read as missing",
            )
            return
        pos += length + 1
        if short_checksum(payload) != checksum:
            warn(
                f"{source}:{key[:12]}",
                f"sweep store: sealed record {key[:12]}... in {source} "
                f"fails its checksum; treating it as missing",
            )
            continue
        try:
            record = json.loads(payload)
        except json.JSONDecodeError:
            warn(
                f"{source}:{key[:12]}",
                f"sweep store: sealed record {key[:12]}... in {source} "
                f"is not valid JSON; treating it as missing",
            )
            continue
        if isinstance(record, dict):
            yield key, record


def read_segment_record(
    path: Path, entry: SegmentEntry, warn: "WarnFn" = _default_warn
) -> dict | None:
    """Random-access one sealed record through its manifest entry.

    Seeks straight to the payload, verifies its checksum, and parses it;
    any failure (missing segment, short read, checksum or JSON mismatch)
    reads as missing-with-warning, never an exception.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(entry.offset)
            payload = handle.read(entry.length)
    except OSError as exc:
        warn(
            f"{path.name}:missing",
            f"sweep store: manifest points at unreadable segment "
            f"{path.name} ({exc}); its records read as missing",
        )
        return None
    if len(payload) < entry.length or short_checksum(payload) != entry.checksum:
        warn(
            f"{path.name}:{entry.key[:12]}",
            f"sweep store: sealed record {entry.key[:12]}... in {path.name} "
            f"fails its checksum; treating it as missing",
        )
        return None
    try:
        record = json.loads(payload)
    except json.JSONDecodeError:
        warn(
            f"{path.name}:{entry.key[:12]}",
            f"sweep store: sealed record {entry.key[:12]}... in {path.name} "
            f"is not valid JSON; treating it as missing",
        )
        return None
    return record if isinstance(record, dict) else None


# -- manifest ------------------------------------------------------------------


def _columns_payload(columns: SegmentColumns) -> dict:
    """Serialize one :class:`SegmentColumns` for the root or a delta line;
    sidecar keys are emitted only when a sidecar exists."""
    payload: dict = {"count": columns.count}
    if columns.sidecar_length > 0:
        payload["sidecar_length"] = columns.sidecar_length
        payload["sidecar_checksum"] = columns.sidecar_checksum
    return payload


def _parse_entries(raw: dict) -> dict:
    """``{key: [segment, offset, length, checksum]}`` -> entry mapping."""
    return {
        key: SegmentEntry(
            key=key,
            segment=str(spec[0]),
            offset=int(spec[1]),
            length=int(spec[2]),
            checksum=str(spec[3]),
        )
        for key, spec in raw.items()
    }


def _parse_columns(spec: dict) -> SegmentColumns:
    """``{count, sidecar_*}`` -> :class:`SegmentColumns`.

    The ``sidecar_*`` keys are optional (absent on segments whose sidecar
    write failed), defaulting to "no sidecar"; the ``columns_*`` keys of
    manifests written by older engines are ignored.
    """
    return SegmentColumns(
        count=int(spec["count"]),
        sidecar_length=int(spec.get("sidecar_length", 0)),
        sidecar_checksum=str(spec.get("sidecar_checksum", "")),
    )


def _replay_delta(
    directory: Path,
    delta_name: str,
    entries: dict,
    segments: dict,
    warn: "WarnFn",
) -> int:
    """Apply the delta log's segment publications onto ``entries``/
    ``segments`` in place; returns the number of lines applied.

    Each intact line is one segment published since the checkpoint.  A
    corrupt line (torn by a crash mid-append, or damaged on disk) is
    skipped with a warning -- its segment's records read as missing until
    the next merge folds the log -- and replay continues with the next
    line: the newline framing is restored by the next appender, so one bad
    line never hides later publications.
    """
    path = directory / MANIFEST_DIR_NAME / delta_name
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return 0
    except OSError as exc:
        warn(
            f"{delta_name}:unreadable",
            f"sweep store: unreadable manifest delta log {delta_name} "
            f"({exc}); segments published since the last checkpoint read "
            f"as missing",
        )
        return 0
    applied = 0
    lines = data.split(b"\n")
    if lines and lines[-1] != b"":
        warn(
            f"{delta_name}:torn",
            f"sweep store: manifest delta log {delta_name} has a torn "
            f"final line (appender crashed mid-write); that publication "
            f"reads as missing until the next merge",
        )
    for raw_line in lines[:-1] if lines else []:
        if not raw_line:
            continue
        parts = raw_line.split(b" ", 2)
        payload = None
        if len(parts) == 3 and parts[0] == b"D":
            checksum = parts[1].decode("ascii", errors="replace")
            if short_checksum(parts[2]) == checksum:
                try:
                    payload = json.loads(parts[2])
                except json.JSONDecodeError:
                    payload = None
        if not isinstance(payload, dict):
            warn(
                f"{delta_name}:corrupt-line",
                f"sweep store: skipping a corrupt line of manifest delta "
                f"log {delta_name}; its segment's records read as missing "
                f"until the next merge",
            )
            continue
        try:
            segment = str(payload["segment"])
            segments[segment] = _parse_columns(payload["columns"])
            for key, spec in payload["entries"].items():
                entries[key] = SegmentEntry(
                    key=key,
                    segment=segment,
                    offset=int(spec[0]),
                    length=int(spec[1]),
                    checksum=str(spec[2]),
                )
        except (KeyError, IndexError, TypeError, ValueError, AttributeError):
            warn(
                f"{delta_name}:corrupt-line",
                f"sweep store: skipping a malformed line of manifest delta "
                f"log {delta_name}; its segment's records read as missing "
                f"until the next merge",
            )
            continue
        applied += 1
    return applied


def read_root(directory: Path) -> dict | None:
    """The parsed ``MANIFEST.json`` root object; None when it is absent,
    unreadable, or not a JSON object."""
    try:
        data = json.loads((directory / MANIFEST_NAME).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def load_manifest(directory: Path, warn: "WarnFn" = _default_warn) -> Manifest | None:
    """Read the store's manifest; None when absent or unreadable.

    Assembles the index from the root, its shards, and a delta replay.
    An unreadable or malformed root, or one of any version but
    :data:`MANIFEST_VERSION`, degrades exactly like a corrupt record: the
    sealed records it points at read as missing-with-warning (loose
    records are unaffected).
    """
    path = directory / MANIFEST_NAME
    if not path.exists():
        return None
    data = read_root(directory)
    if data is None:
        warn(
            f"{MANIFEST_NAME}:unreadable",
            f"sweep store: unreadable manifest {path.name}; sealed records "
            f"read as missing until the next compaction",
        )
        return None
    version = data.get("manifest_version")
    if version != MANIFEST_VERSION:
        warn(
            f"{MANIFEST_NAME}:version",
            f"sweep store: manifest {path.name} has unsupported version "
            f"{version!r}; sealed records read as missing",
        )
        return None
    try:
        generation = int(data.get("generation") or 0)
        shards = data.get("shards") or {}
        segments = {
            name: _parse_columns(spec)
            for name, spec in (data.get("segments") or {}).items()
        }
        delta_name = str(data.get("delta") or delta_log_name(generation))
    except (KeyError, TypeError, ValueError, AttributeError):
        warn(
            f"{MANIFEST_NAME}:malformed",
            f"sweep store: malformed manifest {MANIFEST_NAME}; sealed "
            f"records read as missing",
        )
        return None
    entries: dict = {}
    shard_count = 0
    for sid, spec in sorted(shards.items()):
        try:
            shard_file = str(spec["file"])
            want = str(spec["checksum"])
        except (KeyError, TypeError):
            warn(
                f"{MANIFEST_NAME}:shard-{sid}",
                f"sweep store: manifest shard pointer {sid!r} is "
                f"malformed; that shard's records read as missing",
            )
            continue
        path = directory / MANIFEST_DIR_NAME / shard_file
        try:
            blob = path.read_bytes()
        except OSError as exc:
            warn(
                f"{shard_file}:unreadable",
                f"sweep store: unreadable manifest shard {shard_file} "
                f"({exc}); its records read as missing until the next "
                f"merge",
            )
            continue
        if short_checksum(blob) != want:
            warn(
                f"{shard_file}:checksum",
                f"sweep store: manifest shard {shard_file} fails its "
                f"checksum; its records read as missing until the next "
                f"merge",
            )
            continue
        try:
            entries.update(_parse_entries(json.loads(blob)["entries"]))
        except (
            KeyError, IndexError, TypeError, ValueError,
            json.JSONDecodeError, AttributeError,
        ):
            warn(
                f"{shard_file}:malformed",
                f"sweep store: malformed manifest shard {shard_file}; "
                f"its records read as missing until the next merge",
            )
            continue
        shard_count += 1
    delta_records = _replay_delta(directory, delta_name, entries, segments, warn)
    return Manifest(
        entries=entries,
        segments=segments,
        schema_version=data.get("schema_version"),
        engine_version=data.get("engine_version"),
        generation=generation,
        shard_count=shard_count,
        delta_records=delta_records,
    )


def write_manifest(directory: Path, manifest: Manifest) -> bool:
    """Checkpoint ``manifest``: shard files first, then the atomic root
    swap (the commit point).

    Shards are written at ``manifest.generation`` -- callers bump the
    generation before checkpointing, so a crash after some shard writes
    but before the root swap leaves only unreferenced files (the old root
    still points at the old generation's shards; the next merge
    garbage-collects the strays).  Readers see either the old index or
    the new one, never a mix.
    """
    manifest_dir = directory / MANIFEST_DIR_NAME
    try:
        manifest_dir.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    by_shard: dict[str, dict] = {}
    for key, entry in sorted(manifest.entries.items()):
        by_shard.setdefault(shard_id(key), {})[key] = [
            entry.segment, entry.offset, entry.length, entry.checksum,
        ]
    shards = {}
    for sid, shard_entries in sorted(by_shard.items()):
        name = shard_file_name(manifest.generation, sid)
        blob = canonical_dumps(
            {"generation": manifest.generation, "entries": shard_entries}
        ).encode("utf-8")
        if not atomic_write_bytes(manifest_dir / name, blob):
            return False
        shards[sid] = {
            "file": name,
            "checksum": short_checksum(blob),
            "count": len(shard_entries),
        }
    payload = {
        "manifest_version": MANIFEST_VERSION,
        "schema_version": manifest.schema_version,
        "engine_version": manifest.engine_version,
        "generation": manifest.generation,
        "delta": delta_log_name(manifest.generation),
        "shards": shards,
        "segments": {
            name: _columns_payload(c)
            for name, c in sorted(manifest.segments.items())
        },
    }
    return atomic_write_bytes(
        directory / MANIFEST_NAME, canonical_dumps(payload).encode("utf-8")
    )


def append_manifest_delta(
    directory: Path,
    generation: int,
    segment: str,
    entries: "Sequence[SegmentEntry]",
    columns: SegmentColumns,
) -> bool:
    """Publish one freshly written segment with a single fsynced append.

    The O(delta) publication path: one line in the current generation's
    delta log instead of a full checkpoint rewrite.  The line only becomes
    meaningful through the already-committed root (which names this log),
    so the append itself is the commit -- readers replaying the log see
    the segment exactly when the line is durable.  If the log's tail is
    torn (a previous appender crashed mid-write), a newline is prepended
    first so the torn bytes collapse into one skippable bad line instead
    of corrupting this one.
    """
    payload = canonical_dumps(
        {
            "segment": segment,
            "entries": {
                e.key: [e.offset, e.length, e.checksum] for e in entries
            },
            "columns": _columns_payload(columns),
        }
    ).encode("utf-8")
    line = b"D " + short_checksum(payload).encode("ascii") + b" " + payload + b"\n"
    path = directory / MANIFEST_DIR_NAME / delta_log_name(generation)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        repair = b""
        try:
            with open(path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() > 0:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        repair = b"\n"
        except FileNotFoundError:
            pass
        fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            os.write(fd, repair + line)
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError:
        return False
    return True


def gc_unreferenced(
    directory: Path, manifest: Manifest, warn: "WarnFn" = _default_warn
) -> tuple[int, int]:
    """Remove every segment and manifest file the committed root no longer
    references; returns ``(segments_removed, manifest_files_removed)``.

    Only safe *after* a checkpoint swap and under the compaction lock:
    anything unreferenced then is either superseded (its records were
    rewritten into the new generation) or an orphan from a killed
    compactor/merger.  A reader that loaded the previous root just before
    GC can transiently see its segments as missing-with-warning; a reload
    self-heals, and no committed data is ever touched.
    """
    live = set(manifest.segments)
    removed_segments = removed_manifest = 0
    for path in directory.glob(SEGMENT_PATTERN):
        if path.name in live:
            continue
        try:
            path.unlink()
            removed_segments += 1
        except OSError:
            pass
    # Sidecars are shadows of their segment: drop any whose segment is
    # gone or published without one.  Not counted -- a ``.cols`` is part
    # of its ``.seg`` for accounting purposes, so the segment GC counters
    # (which tests and the MERGE line contract pin down) are unchanged.
    live_sidecars = {
        sidecar_name(name)
        for name, columns in manifest.segments.items()
        if columns.sidecar_length > 0
    }
    for path in directory.glob(SIDECAR_PATTERN):
        if path.name in live_sidecars:
            continue
        try:
            path.unlink()
        except OSError:
            pass
    keep = {shard_file_name(manifest.generation, sid) for sid in SHARD_IDS}
    keep.add(delta_log_name(manifest.generation))
    manifest_dir = directory / MANIFEST_DIR_NAME
    if manifest_dir.is_dir():
        for path in manifest_dir.iterdir():
            if path.name in keep:
                continue
            try:
                path.unlink()
                removed_manifest += 1
            except OSError:
                pass
    return removed_segments, removed_manifest
