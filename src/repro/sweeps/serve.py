"""Long-lived HTTP query daemon over a sweep store.

``python -m repro.sweeps serve STORE [--port N]`` starts a stdlib-only
(:class:`http.server.ThreadingHTTPServer`) daemon that answers read
queries off the store's zero-copy substrate: bulk loads go through
:meth:`SweepStore.analysis_columns` (mmap'd binary sidecars served as
NumPy views), and hot :class:`~repro.sweeps.analysis.ResultTable`
aggregations are cached keyed by the store's *generation token* -- a
cheap stat-level fingerprint of the manifest root, the manifest shard/
delta files, and the loose-record census.  The token doubles as the HTTP
``ETag``, so clients revalidate with ``If-None-Match`` and get 304s for
free across unchanged generations, while a concurrent ``merge`` /
``compact`` / sweep writing underneath the live daemon flips the token
at its atomic manifest swap (or loose write) and every cache entry is
dropped: the daemon keeps serving *correct* bytes while a fleet writes
under it, it just pays one cold load per new generation.

A view is served only from a build across which the store held still.
A view reads exactly the state its token hashed: the manifest index it
loads, and the loose files of the listing read with the token (a
``put`` landing mid-build adds a file the view does not read, so it
serves the store as it was, never a torn mix).  After building its
table (or its stats census) the view re-reads the index identity and
the loose listing; if the index moved or a listed loose file is gone --
a ``merge`` may have garbage-collected the very files the build was
reading, a ``compact`` may have sealed loose records between the
manifest load and the loose reads -- the build is discarded, with the
store warnings it raised, and the request starts over on a fresh view,
before any byte of the response is sent.  Only ``merge`` and
``compact`` discard builds, and each publishes once, so retries end as
soon as those pause, however fast a fleet keeps putting; a store that
merges or compacts without pause is bounded by :data:`SETTLE_TIMEOUT_S`,
past which the request is answered 503.  A ``/records/<key>`` hit is
served whatever the timing (records are content-addressed); a miss is
answered 404 only if the store held still across the lookup.

Endpoints (all ``GET``, all JSON unless noted):

- ``/`` -- endpoint index;
- ``/stats`` -- the :meth:`SweepStore.stats` census plus the current etag;
- ``/columns`` -- column names, row count, detected axes;
- ``/records/<key>`` -- one raw record by scenario key (404 when absent);
- ``/marginal?value=&over=&group_by=&agg=`` -- a
  :func:`~repro.sweeps.analysis.marginal_payload`;
- ``/pivot?index=&column=&value=&agg=`` -- a
  :func:`~repro.sweeps.analysis.pivot_payload`;
- ``/crossovers?axis=&value=&by=&group_by=`` -- a
  :func:`~repro.sweeps.analysis.crossover_payload`;
- ``/csv`` -- the full flat table as ``text/csv``, streamed in chunked
  transfer encoding via :meth:`ResultTable.iter_csv`, byte-identical to
  ``python -m repro.sweeps analyze STORE --csv``.

Error contract: unknown endpoints and unknown record keys are 404,
invalid query parameters (unknown column, bad aggregate, non-numeric
crossover axis) are 400, and a store that cannot be loaded at all (the
directory vanished, the bulk read raised, no view build held still
within :data:`SETTLE_TIMEOUT_S`) is 503 -- each as a JSON
``{"error": ...}`` body, with a warning on the ``repro.sweeps.serve``
logger for the 5xx paths.  Success responses carry ``ETag`` and
``Cache-Control: no-cache`` (revalidate every time; revalidation is one
stat-level token check).

The daemon prints one stable machine-readable readiness line --
``SERVE ready port=... store=... generation=... records=... etag=...``
(fields append-only) -- once the socket is bound; scripts and CI wait on
it exactly like the ``RESUME``/``MERGE`` lines (see
``docs/store-format.md``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import threading
import time
import typing
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from repro.sweeps import segments as seg
from repro.sweeps.analysis import (
    AGGREGATIONS,
    METRIC_COLUMNS,
    ResultTable,
    crossover_payload,
    marginal_payload,
    pivot_payload,
)
from repro.sweeps.store import SweepStore

if typing.TYPE_CHECKING:
    from collections.abc import Callable, Iterator

T = typing.TypeVar("T")

__all__ = [
    "DEFAULT_CSV_CHUNK_ROWS",
    "SweepServer",
    "serve_store",
    "store_token",
]

#: Rows per streamed ``/csv`` chunk (one HTTP chunk per generator chunk).
DEFAULT_CSV_CHUNK_ROWS = 2048

#: Cached rendered payloads per store generation (LRU; /csv is never
#: body-cached -- it streams from the cached table instead).
DEFAULT_CACHE_PAYLOADS = 64

#: Longest a request keeps retrying view builds that a ``merge`` or
#: ``compact`` tore before it is answered 503 (a ``put`` never tears
#: one).  A deadline rather than a build count: how many builds a busy
#: store tears says how fast the writers publish, not how long the
#: client has waited.  60 s is the read timeout HTTP
#: clients and proxies commonly default to (nginx ``proxy_read_timeout``,
#: for one); a response later than that would reach nobody.
SETTLE_TIMEOUT_S = 60.0

logger = logging.getLogger(__name__)


def store_token(directory: Path) -> str:
    """Cheap content token for the store's current read state.

    Hashes stat-level identity (name, mtime_ns, size) of the manifest
    root and every file under ``manifest/`` (shards and the append-only
    delta log), plus the sorted loose-record filenames.  Every way the
    store's readable contents can change moves at least one input:

    - ``merge`` / a full-checkpoint ``compact`` atomically swap
      ``MANIFEST.json`` (fresh inode: new mtime_ns) and rewrite shards;
    - an O(delta) ``compact`` grows the delta log;
    - a sweep writing records adds loose files (whose names are content
      addresses: a loose set's *names* pin its bytes).

    Pure stat calls over O(loose + 17) paths -- cheap enough to run per
    request, which is what makes ``If-None-Match`` revalidation nearly
    free.  The token is not a byte-level checksum: an in-place rewrite
    of a loose file with identical length and a colder mtime would be
    missed, but loose records are content-addressed and written
    atomically, so that cannot happen through any store API.
    """
    return _StoreState.read(directory).token


def _index_identity(directory: Path) -> str:
    """The stat-level identity of the manifest root and every file under
    ``manifest/``: the part of :func:`store_token` that only ``merge``
    and ``compact`` move."""
    lines = []
    root = directory / seg.MANIFEST_NAME
    try:
        info = root.stat()
        lines.append(f"root:{info.st_mtime_ns}:{info.st_size}\n")
    except OSError:
        lines.append("root:none\n")
    manifest_dir = directory / seg.MANIFEST_DIR_NAME
    try:
        manifest_files = sorted(manifest_dir.iterdir())
    except OSError:
        manifest_files = []
    for path in manifest_files:
        try:
            info = path.stat()
        except OSError:
            continue
        lines.append(f"m:{path.name}:{info.st_mtime_ns}:{info.st_size}\n")
    return "".join(lines)


def _loose_names(directory: Path) -> tuple[str, ...]:
    """Sorted loose-record filenames (the manifest root is not a record)."""
    return tuple(sorted(
        path.name
        for path in directory.glob("*.json")
        if path.name != seg.MANIFEST_NAME
    ))


class _StoreState(typing.NamedTuple):
    """One read of the store's state: the index identity and the loose
    listing that a view's builds read, and the token that hashes both."""

    index: str
    loose: tuple[str, ...]

    @classmethod
    def read(cls, directory: Path) -> "_StoreState":
        return cls(_index_identity(directory), _loose_names(directory))

    @property
    def token(self) -> str:
        digest = hashlib.sha256(self.index.encode())
        for name in self.loose:
            digest.update(f"l:{name}\n".encode())
        return digest.hexdigest()[:32]


class _StoreMoved(Exception):
    """A view's build saw the store change under it; start over."""


class _StoreUnavailable(OSError):
    """The store cannot be served: gone, or never held still (HTTP 503)."""


class _PinnedStore(SweepStore):
    """A :class:`SweepStore` that reads only the loose files of one listing,
    and can hold its warnings back until the read is known to be kept.

    Pinning the listing means a ``put`` landing mid-build adds nothing the
    build reads, so it cannot tear the build: the view serves exactly the
    records its token hashed.  Warnings raised under :meth:`holding` go to
    the caller's list instead of the log; a build the store tore is
    thrown away with its warnings (a merge's GC makes a healthy store look
    corrupt to a reader of the previous root), and a kept build
    :meth:`publish`-es them.
    """

    def __init__(self, directory: Path, loose: tuple[str, ...]) -> None:
        super().__init__(directory)
        self._loose = loose
        self._held = threading.local()

    def loose_paths(self) -> "Iterator[Path]":
        for name in self._loose:
            yield self.directory / name

    def _warn(self, dedup_key: str, message: str) -> None:
        held = getattr(self._held, "warnings", None)
        if held is None:
            super()._warn(dedup_key, message)
        else:
            held.append((dedup_key, message))

    @contextlib.contextmanager
    def holding(self) -> "Iterator[list[tuple[str, str]]]":
        """Collect this thread's store warnings into the yielded list."""
        held: list[tuple[str, str]] = []
        self._held.warnings = held
        try:
            yield held
        finally:
            self._held.warnings = None

    def publish(self, held: "list[tuple[str, str]]") -> None:
        for dedup_key, message in held:
            super()._warn(dedup_key, message)


class _StoreView:
    """One consistent, cache-carrying snapshot of the store.

    A view is pinned to the store state read when it was created: its
    store reads only the loose files of that state's listing, and the
    lazily built :class:`ResultTable`, the stats census, and every
    rendered payload it holds were all computed from that state.  A
    build is kept only if the store held still across it: the index
    identity (manifest root, shards, delta log) reads the same once the
    build is done, and every loose file of the listing is still there.
    Otherwise a ``merge`` or ``compact`` ran while the build read the
    store (a merge's GC can unlink the files a build is halfway
    through), the build is discarded with its warnings, and
    :class:`_StoreMoved` sends the request to a fresh view.  A ``put``
    only adds loose files the view does not read, so it never discards
    a build.  The server swaps the whole view atomically when the token
    moves, so a request never sees a table from one generation with a
    cached aggregate from another.
    """

    def __init__(
        self, directory: Path, state: _StoreState, cache_payloads: int
    ) -> None:
        self.state = state
        self.token = state.token
        self.etag = f'"{self.token}"'
        self.directory = directory
        # A fresh store per view: its lazy manifest cache must not
        # outlive the generation the view is pinned to.
        self.store = _PinnedStore(directory, state.loose)
        self._cache_payloads = cache_payloads
        self._lock = threading.RLock()
        self._table: ResultTable | None = None
        self._stats = None
        self._moved = False
        self._payloads: "OrderedDict[tuple, bytes]" = OrderedDict()

    def held_still(self) -> bool:
        """Whether the store still holds the state this view reads.  Once
        moved, a view stays moved: merges and compacts move the index
        forward, never back."""
        if not self._moved:
            now = _StoreState.read(self.directory)
            self._moved = now.index != self.state.index or not (
                set(self.state.loose) <= set(now.loose)
            )
        return not self._moved

    def _settled(self, build: "Callable[[], T]") -> "T":
        """``build()``, kept only if the store held still across it."""
        if self._moved:
            raise _StoreMoved
        with self.store.holding() as held:
            try:
                value = build()
            except OSError:
                # A read that failed while the store moved is a torn
                # build too; only a still store's failure is a 503.
                if self.held_still():
                    self.store.publish(held)
                    raise
                raise _StoreMoved from None
        if not self.held_still():
            raise _StoreMoved
        self.store.publish(held)
        return value

    def table(self) -> ResultTable:
        with self._lock:
            if self._table is None:
                self._table = self._settled(
                    lambda: ResultTable.from_store(self.store)
                )
            return self._table

    def stats(self):
        with self._lock:
            if self._stats is None:
                self._stats = self._settled(self.store.stats)
            return self._stats

    def record(self, key: str) -> dict | None:
        """The record for ``key``.  A hit is right whatever the timing
        (records are content-addressed); a miss only if the store held
        still across the lookup, else :class:`_StoreMoved`."""
        with self.store.holding() as held:
            record = self.store.get(key)
        if record is not None and not held:
            return record
        if self.held_still():
            self.store.publish(held)
        elif record is None:
            raise _StoreMoved
        return record

    def payload(self, key: tuple, build: "Callable[[], dict]") -> bytes:
        """Rendered JSON body for ``key``, computed once per view."""
        with self._lock:
            cached = self._payloads.get(key)
            if cached is not None:
                self._payloads.move_to_end(key)
                return cached
            body = json.dumps(build(), sort_keys=True).encode("utf-8")
            self._payloads[key] = body
            while len(self._payloads) > self._cache_payloads:
                self._payloads.popitem(last=False)
            return body


class _ServeHandler(BaseHTTPRequestHandler):
    """Routes one request against the server's current store view."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-sweeps-serve/1.0"

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    def _client_etags(self) -> tuple[str, ...]:
        header = self.headers.get("If-None-Match", "")
        return tuple(tag.strip() for tag in header.split(",") if tag.strip())

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        etag: str | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        if etag is not None:
            self.send_header("ETag", etag)
            self.send_header("Cache-Control", "no-cache")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_not_modified(self, etag: str) -> None:
        self.send_response(304)
        self.send_header("ETag", etag)
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_body(
            status, json.dumps({"error": message}).encode("utf-8")
        )

    def _reply(self, body: bytes, etag: str, content_type: str) -> None:
        """200 with ``body``, or 304 when the client already holds it."""
        tags = self._client_etags()
        if etag in tags or "*" in tags:
            self._send_not_modified(etag)
            return
        self._send_body(200, body, content_type=content_type, etag=etag)

    # -- request handling ------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming contract)
        try:
            self._route()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to answer
        except Exception as exc:  # pragma: no cover - last-resort guard
            logger.warning("serve: request %s failed: %s", self.path, exc)
            try:
                self._send_error_json(500, str(exc))
            except OSError:
                pass

    def _route(self) -> None:
        split = urlsplit(self.path)
        path = split.path
        if len(path) > 1:
            path = path.rstrip("/") or "/"
        query = parse_qs(split.query)
        server: SweepServer = self.server  # type: ignore[assignment]

        # Every endpoint computes its body before the first byte is sent,
        # so a build the store tore can still be retried on a fresh view.
        try:
            server.settled(lambda view: self._dispatch(view, path, query))
        except _StoreUnavailable as exc:
            logger.warning(
                "serve: store %s is unreadable: %s",
                server.store_directory, exc,
            )
            self._send_error_json(503, f"store unavailable: {exc}")

    def _dispatch(self, view: _StoreView, path: str, query: dict) -> None:
        if path == "/":
            self._reply(
                view.payload(("index",), _index_payload),
                view.etag, "application/json",
            )
            return
        if path == "/stats":
            self._get_stats(view)
            return
        if path == "/columns":
            self._get_table_payload(view, ("columns",), _columns_payload)
            return
        if path.startswith("/records/"):
            self._get_record(view, unquote(path[len("/records/") :]))
            return
        if path == "/marginal":
            self._get_aggregation(view, "marginal", query)
            return
        if path == "/pivot":
            self._get_aggregation(view, "pivot", query)
            return
        if path == "/crossovers":
            self._get_aggregation(view, "crossovers", query)
            return
        if path == "/csv":
            self._get_csv(view)
            return
        self._send_error_json(404, f"unknown endpoint {path!r}")

    # -- endpoints -------------------------------------------------------------

    def _get_stats(self, view: _StoreView) -> None:
        def build() -> dict:
            stats = view.stats()
            return {
                "store": str(view.directory),
                "etag": view.token,
                **stats.as_dict(),
            }

        self._reply(
            view.payload(("stats",), build), view.etag, "application/json"
        )

    def _get_table_payload(
        self, view: _StoreView, key: tuple, build: "Callable[[ResultTable], dict]"
    ) -> None:
        try:
            body = view.payload(key, lambda: build(view.table()))
        except OSError as exc:
            logger.warning(
                "serve: bulk load of %s failed: %s", view.directory, exc
            )
            self._send_error_json(503, f"store unavailable: {exc}")
            return
        self._reply(body, view.etag, "application/json")

    def _get_record(self, view: _StoreView, key: str) -> None:
        if not key or not all(c in "0123456789abcdef" for c in key):
            self._send_error_json(
                400, "record keys are lowercase hex scenario addresses"
            )
            return
        record = view.record(key)
        if record is None:
            self._send_error_json(404, f"no record for key {key!r}")
            return
        body = json.dumps(record, sort_keys=True).encode("utf-8")
        self._reply(body, view.etag, "application/json")

    def _get_aggregation(self, view: _StoreView, kind: str, query: dict) -> None:
        try:
            params = _aggregation_params(kind, query)
        except ValueError as exc:
            self._send_error_json(400, str(exc))
            return
        key = (kind, tuple(sorted(params.items())))

        def build() -> dict:
            table = view.table()
            if kind == "marginal":
                return marginal_payload(table, **params)
            if kind == "pivot":
                return pivot_payload(table, **params)
            axis = params["axis"]
            if axis not in table.numeric_axes():
                raise ValueError(
                    f"{axis!r} is not a numeric sweep axis of this store "
                    f"(numeric axes: {', '.join(table.numeric_axes()) or 'none'})"
                )
            return crossover_payload(table, **params)

        try:
            body = view.payload(key, build)
        except (KeyError, ValueError) as exc:
            # Unknown column / aggregate / axis: the entry points raise,
            # the daemon answers 400 with the same message.
            message = exc.args[0] if exc.args else str(exc)
            self._send_error_json(400, str(message))
            return
        except OSError as exc:
            logger.warning(
                "serve: bulk load of %s failed: %s", view.directory, exc
            )
            self._send_error_json(503, f"store unavailable: {exc}")
            return
        self._reply(body, view.etag, "application/json")

    def _get_csv(self, view: _StoreView) -> None:
        tags = self._client_etags()
        if view.etag in tags or "*" in tags:
            self._send_not_modified(view.etag)
            return
        try:
            table = view.table()
        except OSError as exc:
            logger.warning(
                "serve: bulk load of %s failed: %s", view.directory, exc
            )
            self._send_error_json(503, f"store unavailable: {exc}")
            return
        server: SweepServer = self.server  # type: ignore[assignment]
        self.send_response(200)
        self.send_header("Content-Type", "text/csv; charset=utf-8")
        self.send_header("ETag", view.etag)
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        # Chunked transfer encoding by hand: http.server does not frame
        # bodies itself, and /csv must stream -- a 10^6-row extract never
        # materializes as one string on the daemon side.
        for chunk in table.iter_csv(chunk_rows=server.csv_chunk_rows):
            data = chunk.encode("utf-8")
            self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
            self.wfile.write(data)
            self.wfile.write(b"\r\n")
        self.wfile.write(b"0\r\n\r\n")


def _index_payload() -> dict:
    return {
        "endpoints": {
            "/stats": "store census (loose/sealed/segments/generation/...)",
            "/columns": "column names, row count, detected axes",
            "/records/<key>": "one raw record by scenario key",
            "/marginal": "params: value, over, group_by, agg",
            "/pivot": "params: index, column, value, agg",
            "/crossovers": "params: axis, value, by, group_by",
            "/csv": "full flat table as chunk-streamed text/csv",
        },
        "aggregations": list(AGGREGATIONS),
    }


def _columns_payload(table: ResultTable) -> dict:
    return {
        "names": list(table.names),
        "rows": len(table),
        "axes": list(table.axes()),
        "numeric_axes": list(table.numeric_axes()),
        "metrics": [m for m in METRIC_COLUMNS if m in table.names],
    }


def _single(query: dict, name: str, default: str | None = None) -> str | None:
    """One scalar query parameter (repeats are a client error)."""
    values = query.get(name)
    if not values:
        return default
    if len(values) > 1:
        raise ValueError(f"parameter {name!r} given {len(values)} times")
    return values[0]


def _aggregation_params(kind: str, query: dict) -> dict:
    """Parse and validate one aggregation endpoint's query parameters.

    Raises ``ValueError`` (HTTP 400) on unknown parameters, repeated
    parameters, or a bad aggregate name; column existence is validated
    downstream by the payload entry points against the live table.
    """
    allowed = {
        "marginal": ("value", "over", "group_by", "agg"),
        "pivot": ("index", "column", "value", "agg"),
        "crossovers": ("axis", "value", "by", "group_by"),
    }[kind]
    unknown = sorted(set(query) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for /{kind} "
            f"(accepted: {', '.join(allowed)})"
        )
    params: dict = {}
    for name in allowed:
        value = _single(query, name)
        if value is not None:
            params[name] = value
    if "group_by" in params:
        params["group_by"] = tuple(
            part.strip() for part in params["group_by"].split(",") if part.strip()
        )
    agg = params.get("agg")
    if agg is not None and agg not in AGGREGATIONS:
        raise ValueError(
            f"unknown agg {agg!r}; one of {', '.join(AGGREGATIONS)}"
        )
    if kind == "pivot":
        missing = [n for n in ("index", "column", "value") if n not in params]
        if missing:
            raise ValueError(
                f"/pivot requires parameter(s): {', '.join(missing)}"
            )
    if kind == "crossovers" and "axis" not in params:
        raise ValueError("/crossovers requires parameter: axis")
    return params


class SweepServer(ThreadingHTTPServer):
    """The query daemon: a threading HTTP server over one store directory.

    One live :class:`_StoreView` at a time, swapped atomically whenever
    :func:`store_token` observes a new generation; requests in flight
    keep the view they started with (a reference), so a merge landing
    mid-response never mixes generations within one body.
    """

    daemon_threads = True
    #: Listen backlog.  socketserver's default of 5 is below a modest
    #: client fleet: connections past it have their SYN dropped while the
    #: accept loop is busy, and each such client waits out a ~1 s SYN
    #: retransmit.
    request_queue_size = 128

    def __init__(
        self,
        directory: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_payloads: int = DEFAULT_CACHE_PAYLOADS,
        csv_chunk_rows: int = DEFAULT_CSV_CHUNK_ROWS,
    ) -> None:
        self.store_directory = Path(directory)
        if not self.store_directory.is_dir():
            raise OSError(
                f"sweep store directory {self.store_directory} does not exist"
            )
        if cache_payloads <= 0:
            raise ValueError(
                f"cache_payloads must be positive, got {cache_payloads}"
            )
        if csv_chunk_rows <= 0:
            raise ValueError(
                f"csv_chunk_rows must be positive, got {csv_chunk_rows}"
            )
        self.cache_payloads = cache_payloads
        self.csv_chunk_rows = csv_chunk_rows
        self._view_lock = threading.Lock()
        self._view: _StoreView | None = None
        super().__init__((host, port), _ServeHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def current_view(self) -> _StoreView:
        """The view for the store's current generation token.

        Raises ``OSError`` (HTTP 503) when the store directory is gone --
        constructing a :class:`SweepStore` would silently *recreate* it
        and serve an empty table, which would turn an operational error
        into quietly wrong data.
        """
        if not self.store_directory.is_dir():
            raise _StoreUnavailable(
                f"store directory {self.store_directory} disappeared"
            )
        state = _StoreState.read(self.store_directory)
        with self._view_lock:
            view = self._view
            if view is None or view.token != state.token:
                view = _StoreView(
                    self.store_directory, state, self.cache_payloads
                )
                self._view = view
            return view

    def settled(self, read: "Callable[[_StoreView], T]") -> "T":
        """``read(view)`` on the current view, retried on a fresh view
        each time the store moves under it (:class:`_StoreMoved`).

        Each retry means a ``merge`` or ``compact`` published something
        (a ``put`` never moves a view), so the loop ends once those
        pause; past :data:`SETTLE_TIMEOUT_S` it raises ``OSError``
        (HTTP 503) instead, as it does when the store directory is gone.
        """
        deadline = time.monotonic() + SETTLE_TIMEOUT_S
        while True:
            try:
                return read(self.current_view())
            except _StoreMoved:
                if time.monotonic() >= deadline:
                    raise _StoreUnavailable(
                        f"store {self.store_directory} never held still "
                        f"through a view build in {SETTLE_TIMEOUT_S:g} s"
                    ) from None

    def etag(self) -> str:
        """The current generation ETag (quoted, as sent on the wire)."""
        return self.current_view().etag

    @property
    def ready_line(self) -> str:
        """Stable machine-readable readiness line (``SERVE ready ...``);
        fields are append-only, like every other summary-line contract."""
        view, stats = self.settled(lambda view: (view, view.stats()))
        return (
            f"SERVE ready port={self.port} store={self.store_directory} "
            f"generation={stats.generation} "
            f"records={stats.loose + stats.sealed} etag={view.etag}"
        )


def serve_store(
    directory: str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_payloads: int = DEFAULT_CACHE_PAYLOADS,
    csv_chunk_rows: int = DEFAULT_CSV_CHUNK_ROWS,
    log: "Callable[[str], None] | None" = print,
) -> int:
    """Run the daemon until interrupted (the ``serve`` CLI body).

    Binds, prints the ``SERVE ready`` line (flushed, so ``grep`` on a
    redirected log sees it immediately), and blocks in
    ``serve_forever``.  Returns 0 on a clean ``KeyboardInterrupt``.
    """
    server = SweepServer(
        directory, host=host, port=port,
        cache_payloads=cache_payloads, csv_chunk_rows=csv_chunk_rows,
    )
    try:
        if log is not None:
            log(server.ready_line)
            log(
                f"serving {server.store_directory} on "
                f"http://{host}:{server.port}/ (Ctrl-C to stop)"
            )
        import sys

        sys.stdout.flush()
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
