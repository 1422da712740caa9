"""The HTTP query daemon: endpoint schemas, ETag generation-tracking,
liveness under concurrent writers, streaming CSV, and error paths.

The daemon is a *read view* over the store, so the invariants mirror the
sidecar suite's: serving may change latency but never bytes.  Every
aggregation endpoint must be byte-identical to its in-process
counterpart (``/csv`` to ``ResultTable.to_csv``, ``/pivot`` to
:func:`~repro.sweeps.analysis.pivot_payload`, ...), a 304 must only ever
be answered for the *current* generation token, and a merge or compact
landing underneath the live daemon must flip the token and serve fresh
bytes -- stale caches are a correctness bug here, not a staleness
nuisance.
"""

import csv
import hashlib
import http.client
import io
import json
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.sweeps import ResultTable, SweepStore, segments
from repro.sweeps.analysis import (
    crossover_payload,
    marginal_payload,
    pivot_payload,
)
from repro.sweeps.serve import SweepServer, store_token


def record_for(i: int) -> tuple[str, dict]:
    """One synthetic but schema-complete sweep record."""
    key = hashlib.sha256(f"serve{i}".encode()).hexdigest()
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


def filled_store(directory: Path, n: int = 12, merge: bool = True) -> SweepStore:
    store = SweepStore(directory)
    for i in range(n):
        key, record = record_for(i)
        store.put(key, record)
    if merge:
        store.merge()
    return store


@pytest.fixture
def served(tmp_path):
    """A merged store behind a live daemon; yields (store, server, base_url)."""
    store = filled_store(tmp_path / "store")
    server = SweepServer(tmp_path / "store")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield store, server, f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def get(url: str, headers: dict | None = None) -> tuple[int, dict, bytes]:
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as err:
        body = err.read()
        err.close()
        return err.code, dict(err.headers), body


# ---------------------------------------------------------------------------
# store_token
# ---------------------------------------------------------------------------


class TestStoreToken:
    def test_stable_when_nothing_changes(self, tmp_path):
        filled_store(tmp_path)
        assert store_token(tmp_path) == store_token(tmp_path)

    def test_moves_on_loose_write(self, tmp_path):
        store = filled_store(tmp_path)
        before = store_token(tmp_path)
        key, record = record_for(99)
        store.put(key, record)
        assert store_token(tmp_path) != before

    def test_moves_on_compact_and_merge(self, tmp_path):
        store = filled_store(tmp_path, merge=False)
        tokens = {store_token(tmp_path)}
        store.compact()
        tokens.add(store_token(tmp_path))
        store.merge()
        tokens.add(store_token(tmp_path))
        assert len(tokens) == 3

    def test_distinct_stores_distinct_tokens(self, tmp_path):
        filled_store(tmp_path / "a", n=4)
        filled_store(tmp_path / "b", n=5)
        assert store_token(tmp_path / "a") != store_token(tmp_path / "b")


# ---------------------------------------------------------------------------
# Endpoint schemas and parity with the in-process aggregation layer
# ---------------------------------------------------------------------------


class TestEndpoints:
    def test_index_lists_every_endpoint(self, served):
        _, _, base = served
        status, _, body = get(base + "/")
        payload = json.loads(body)
        assert status == 200
        for endpoint in ("/stats", "/columns", "/marginal", "/pivot",
                         "/crossovers", "/csv"):
            assert endpoint in payload["endpoints"]
        assert "mean" in payload["aggregations"]

    def test_stats_schema(self, served):
        store, server, base = served
        status, headers, body = get(base + "/stats")
        payload = json.loads(body)
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        stats = store.stats()
        assert payload["sealed"] == stats.sealed
        assert payload["loose"] == stats.loose
        assert payload["generation"] == stats.generation
        assert payload["etag"] == store_token(store.directory)
        assert headers["ETag"] == f'"{payload["etag"]}"'

    def test_columns_schema(self, served):
        store, _, base = served
        _, _, body = get(base + "/columns")
        payload = json.loads(body)
        table = ResultTable.from_store(store)
        assert payload["names"] == list(table.names)
        assert payload["rows"] == len(table)
        assert payload["axes"] == list(table.axes())
        assert payload["numeric_axes"] == list(table.numeric_axes())
        assert set(payload["metrics"]) <= set(payload["names"])

    def test_record_roundtrip(self, served):
        _, _, base = served
        key, record = record_for(3)
        status, _, body = get(f"{base}/records/{key}")
        assert status == 200
        served_record = json.loads(body)
        # put() stamps an envelope (key, schema/engine versions) around
        # the payload; everything we stored must come back verbatim.
        assert served_record["key"] == key
        for field, value in record.items():
            assert served_record[field] == value

    def test_marginal_pivot_crossovers_match_in_process(self, served):
        store, _, base = served
        table = ResultTable.from_store(store)
        pairs = [
            ("/marginal", marginal_payload(table)),
            ("/marginal?value=success_rate&group_by=technique&agg=max",
             marginal_payload(table, value="success_rate",
                              group_by=("technique",), agg="max")),
            ("/pivot?index=benchmark&column=technique&value=analytic_success",
             pivot_payload(table, index="benchmark", column="technique",
                           value="analytic_success")),
            ("/crossovers?axis=cz_error",
             crossover_payload(table, axis="cz_error")),
        ]
        for path, want in pairs:
            status, _, body = get(base + path)
            assert status == 200, path
            # Both sides through json to normalize tuples vs lists.
            assert json.loads(body) == json.loads(json.dumps(want)), path

    def test_trailing_slash_routes(self, served):
        _, _, base = served
        status, _, body = get(base + "/stats/")
        assert status == 200
        assert "sealed" in json.loads(body)


# ---------------------------------------------------------------------------
# /csv streaming
# ---------------------------------------------------------------------------


class TestCsv:
    def test_byte_identical_to_in_process(self, served):
        store, _, base = served
        status, headers, body = get(base + "/csv")
        assert status == 200
        assert headers["Content-Type"].startswith("text/csv")
        assert body.decode("utf-8") == ResultTable.from_store(store).to_csv()

    def test_streams_chunked(self, served):
        _, server, _ = served
        # urllib reassembles chunks transparently; drop to http.client to
        # see the framing itself.
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            conn.request("GET", "/csv")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Transfer-Encoding") == "chunked"
            assert response.getheader("Content-Length") is None
            response.read()
        finally:
            conn.close()

    def test_tiny_chunks_reassemble_identically(self, tmp_path):
        store = filled_store(tmp_path / "store")
        want = ResultTable.from_store(store).to_csv()
        server = SweepServer(tmp_path / "store", csv_chunk_rows=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            _, _, body = get(f"http://127.0.0.1:{server.port}/csv")
            assert body.decode("utf-8") == want
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_iter_csv_chunks_join_to_to_csv(self, tmp_path):
        table = ResultTable.from_store(filled_store(tmp_path))
        whole = table.to_csv()
        for chunk_rows in (1, 2, 5, 10_000):
            chunks = list(table.iter_csv(chunk_rows=chunk_rows))
            assert "".join(chunks) == whole
        # The header rides with the first row's chunk: one chunk per row.
        assert len(list(table.iter_csv(chunk_rows=1))) == len(table)
        with pytest.raises(ValueError):
            next(table.iter_csv(chunk_rows=0))


# ---------------------------------------------------------------------------
# ETag / If-None-Match generation tracking
# ---------------------------------------------------------------------------


class TestETag:
    def test_304_on_unchanged_generation(self, served):
        _, _, base = served
        for path in ("/stats", "/columns", "/marginal", "/csv"):
            _, headers, first = get(base + path)
            etag = headers["ETag"]
            assert etag.startswith('"') and etag.endswith('"')
            status, headers2, body = get(
                base + path, {"If-None-Match": etag}
            )
            assert status == 304, path
            assert headers2["ETag"] == etag
            assert body == b""
        status, _, _ = get(base + "/stats", {"If-None-Match": "*"})
        assert status == 304

    def test_stale_etag_gets_fresh_body(self, served):
        _, _, base = served
        status, _, body = get(
            base + "/stats", {"If-None-Match": '"not-the-current-token"'}
        )
        assert status == 200
        assert body

    def test_new_record_flips_etag(self, served):
        store, _, base = served
        _, headers, _ = get(base + "/stats")
        etag = headers["ETag"]
        key, record = record_for(77)
        store.put(key, record)
        status, headers2, body = get(base + "/stats", {"If-None-Match": etag})
        assert status == 200
        assert headers2["ETag"] != etag
        payload = json.loads(body)
        assert payload["loose"] == 1  # the new record is visible

    def test_live_merge_flips_etag_and_serves_fresh_bytes(self, served):
        store, _, base = served
        _, headers, stale_csv = get(base + "/csv")
        etag = headers["ETag"]
        key, record = record_for(78)
        store.put(key, record)
        store.merge()
        status, headers2, body = get(base + "/csv", {"If-None-Match": etag})
        assert status == 200
        assert headers2["ETag"] != etag
        fresh = ResultTable.from_store(SweepStore(store.directory)).to_csv()
        assert body.decode("utf-8") == fresh
        assert body.decode("utf-8") != stale_csv.decode("utf-8")

    def test_compact_flips_etag(self, served):
        store, _, base = served
        key, record = record_for(79)
        store.put(key, record)
        _, headers, _ = get(base + "/stats")
        etag = headers["ETag"]
        store.compact()
        _, headers2, _ = get(base + "/stats")
        assert headers2["ETag"] != etag

    def test_error_responses_carry_no_etag(self, served):
        _, _, base = served
        for path in ("/nope", "/records/" + "0" * 64, "/pivot"):
            _, headers, _ = get(base + path)
            assert "ETag" not in headers, path


# ---------------------------------------------------------------------------
# Concurrent readers vs a writer
# ---------------------------------------------------------------------------


class TestListenBacklog:
    def test_connection_burst_completes_while_accept_loop_is_held(
        self, tmp_path
    ):
        # Nothing accepts (serve_forever never runs), so every connection
        # waits in the listen backlog.  Beyond socketserver's default of
        # 5, the kernel would drop SYNs and each client would stall for
        # the ~1 s retransmit; a fleet-sized backlog completes them all
        # at once.
        import socket

        server = SweepServer(filled_store(tmp_path / "s").directory)
        clients = []
        try:
            start = time.perf_counter()
            for _ in range(24):
                clients.append(
                    socket.create_connection(
                        ("127.0.0.1", server.port), timeout=0.5
                    )
                )
            elapsed = time.perf_counter() - start
        finally:
            for client in clients:
                client.close()
            server.server_close()
        assert len(clients) == 24
        assert elapsed < 0.5


class TestConcurrency:
    def test_readers_stay_consistent_under_compact_and_merge(self, served):
        """Every /csv answered while a writer compacts and merges must be
        byte-identical to *some* consistent generation of the store --
        never a torn mix, never an error."""
        store, _, base = served
        valid = {ResultTable.from_store(store).to_csv()}
        stop = threading.Event()
        failures: list[str] = []
        observed: list[str] = []

        def writer():
            # After every mutation, record the consistent CSV of that
            # state; readers' observations are checked against the full
            # set only after everyone joins (a reader may see a new
            # state before this thread has registered it).
            for i in range(80, 88):
                key, record = record_for(i)
                store.put(key, record)
                valid.add(ResultTable.from_store(
                    SweepStore(store.directory)).to_csv())
                if i % 2:
                    store.compact()
                else:
                    store.merge()
                valid.add(ResultTable.from_store(
                    SweepStore(store.directory)).to_csv())
            stop.set()

        def reader():
            while not stop.is_set():
                status, _, body = get(base + "/csv")
                if status != 200:
                    failures.append(f"status {status}")
                    return
                observed.append(body.decode("utf-8"))

        writer_thread = threading.Thread(target=writer)
        reader_threads = [threading.Thread(target=reader) for _ in range(3)]
        writer_thread.start()
        for thread in reader_threads:
            thread.start()
        writer_thread.join(timeout=120)
        for thread in reader_threads:
            thread.join(timeout=120)
        assert not failures
        assert observed
        torn = [
            f"{len(text.splitlines())} lines"
            for text in observed if text not in valid
        ]
        assert not torn
        # And the daemon has converged on the final bytes.
        _, _, body = get(base + "/csv")
        final = ResultTable.from_store(SweepStore(store.directory)).to_csv()
        assert body.decode("utf-8") == final

    # The stress test above is probabilistic; the tests below pin its
    # cause by forcing a merge at one exact point inside a view build.
    # The merge garbage-collects the generation the build has started
    # reading, so a view that served its build anyway would answer with
    # records missing.

    @staticmethod
    def merge_on_first_call(monkeypatch, name: str, directory: Path,
                          after: bool = False) -> None:
        """Wrap ``segments.<name>`` so that its first call runs a merge of
        ``directory`` (before the real call, or after it with ``after``)."""
        real = getattr(segments, name)
        calls: list[int] = []

        def wrapped(*args, **kwargs):
            first = not calls
            calls.append(1)
            if first and not after:
                SweepStore(directory).merge()
            result = real(*args, **kwargs)
            if first and after:
                SweepStore(directory).merge()
            return result

        monkeypatch.setattr(segments, name, wrapped)

    def test_merge_mid_csv_build_serves_post_merge_bytes(
        self, served, monkeypatch, caplog
    ):
        import logging

        store, _, base = served
        key, record = record_for(90)
        store.put(key, record)
        self.merge_on_first_call(
            monkeypatch, "read_segment_sidecar", store.directory
        )
        with caplog.at_level(logging.WARNING, logger="repro.sweeps.store"):
            status, _, body = get(base + "/csv")
        want = ResultTable.from_store(SweepStore(store.directory)).to_csv()
        assert status == 200
        assert len(want.splitlines()) == 14
        assert body.decode("utf-8") == want
        # The torn build's view of a healthy store ("manifest points at
        # missing segment ...; recompact") is thrown away with the build.
        assert not [r.message for r in caplog.records
                    if r.name == "repro.sweeps.store"]

    def test_merge_mid_record_lookup_finds_the_record(
        self, served, monkeypatch
    ):
        store, _, base = served
        key, record = record_for(91)
        store.put(key, record)
        wanted, _ = record_for(3)
        self.merge_on_first_call(
            monkeypatch, "read_segment_record", store.directory
        )
        status, _, body = get(f"{base}/records/{wanted}")
        assert status == 200
        assert json.loads(body)["key"] == wanted

    def test_merge_mid_stats_census_counts_every_record(
        self, served, monkeypatch
    ):
        store, server, base = served
        key, record = record_for(92)
        store.put(key, record)
        # The census loads the old manifest, then the merge seals the
        # loose record: counted from both halves, it would vanish.
        self.merge_on_first_call(
            monkeypatch, "load_manifest", store.directory, after=True
        )
        status, headers, body = get(base + "/stats")
        payload = json.loads(body)
        assert status == 200
        assert payload["sealed"] + payload["loose"] == 13
        assert payload["etag"] == store_token(store.directory)
        assert headers["ETag"] == f'"{payload["etag"]}"'

    def test_ready_line_counts_every_record_under_a_merge(
        self, tmp_path, monkeypatch
    ):
        store = filled_store(tmp_path / "store")
        key, record = record_for(93)
        store.put(key, record)
        server = SweepServer(tmp_path / "store")
        try:
            self.merge_on_first_call(
                monkeypatch, "load_manifest", store.directory, after=True
            )
            line = server.ready_line
        finally:
            server.server_close()
        fields = dict(part.split("=", 1) for part in line.split()[2:])
        assert fields["records"] == "13"
        assert fields["etag"] == f'"{store_token(store.directory)}"'

    def test_reads_answer_promptly_while_a_fleet_keeps_putting(
        self, served, tmp_path
    ):
        """A put adds a loose file that a view in flight does not read, so
        it never discards a build: /csv, /stats and the ready line answer
        at once, however fast puts land, and /csv renders whole exactly
        the records its view's listing held."""
        store, server, base = served
        stop = threading.Event()
        puts: list[int] = []

        def fleet():
            i = 300
            while not stop.is_set():
                key, record = record_for(i)
                store.put(key, record)
                puts.append(i)
                i += 1

        writer = threading.Thread(target=fleet)
        writer.start()
        try:
            while len(puts) < 5:
                time.sleep(0.001)
            for attempt in range(3):
                started = time.monotonic()
                status, _, body = get(base + "/csv")
                stats_status, _, stats = get(base + "/stats")
                line = server.ready_line
                assert time.monotonic() - started < 10.0
                assert status == 200 and stats_status == 200
                # The body is the 12 sealed records plus the puts that the
                # view's listing held, rendered whole: the CSV of a store
                # holding exactly those records.  (A directory listing
                # taken while puts land may hold a later put and miss an
                # earlier one, so the puts need not be a prefix.)
                text = body.decode("utf-8")
                seeds = [int(row["seed"])
                         for row in csv.DictReader(io.StringIO(text))]
                reference = filled_store(tmp_path / f"ref{attempt}",
                                         merge=False)
                for seed in seeds:
                    if seed >= 1300:
                        reference.put(*record_for(seed - 1000))
                assert text == ResultTable.from_store(reference).to_csv()
                assert json.loads(stats)["sealed"] == 12
                assert " records=" in line
        finally:
            stop.set()
            writer.join(timeout=30)
        assert len(puts) > 5

    def test_store_that_never_holds_still_is_503(
        self, served, monkeypatch, caplog
    ):
        """A writer that never pauses cannot make a request wait forever:
        past the settle deadline the daemon answers 503."""
        import logging

        from repro.sweeps import analysis, serve

        store, _, base = served
        real = analysis.ResultTable.from_store.__func__
        writes = iter(range(100, 200))

        def moving(cls, *args, **kwargs):
            table = real(cls, *args, **kwargs)
            key, record = record_for(next(writes))
            store.put(key, record)
            store.compact()
            return table

        monkeypatch.setattr(
            analysis.ResultTable, "from_store", classmethod(moving)
        )
        monkeypatch.setattr(serve, "SETTLE_TIMEOUT_S", 0.0)
        with caplog.at_level(logging.WARNING, logger="repro.sweeps.serve"):
            status, headers, body = get(base + "/csv")
        assert status == 503
        assert "ETag" not in headers
        assert "store unavailable" in json.loads(body)["error"]
        assert any("held still" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------


class TestErrors:
    def test_unknown_endpoint_404(self, served):
        _, _, base = served
        status, _, body = get(base + "/frobnicate")
        assert status == 404
        assert "error" in json.loads(body)

    def test_missing_record_404(self, served):
        _, _, base = served
        status, _, body = get(base + "/records/" + "0" * 64)
        assert status == 404
        assert "no record" in json.loads(body)["error"]

    def test_malformed_record_key_400(self, served):
        _, _, base = served
        status, _, _ = get(base + "/records/NOT-A-KEY")
        assert status == 400

    def test_bad_query_params_400(self, served):
        _, _, base = served
        cases = [
            "/pivot",  # missing required params
            "/pivot?index=benchmark&column=technique&value=no_such_column",
            "/pivot?index=benchmark&column=technique&value=analytic_success&agg=nope",
            "/marginal?value=analytic_success&bogus=1",
            "/marginal?agg=mean&agg=max",  # repeated parameter
            "/crossovers",  # missing axis
            "/crossovers?axis=benchmark",  # non-numeric axis
        ]
        for path in cases:
            status, _, body = get(base + path)
            assert status == 400, path
            assert "error" in json.loads(body), path

    def test_vanished_store_503_with_warning(self, served, tmp_path, caplog):
        """Deleting the store out from under the daemon must 503 -- not
        silently recreate an empty directory and serve an empty table."""
        import logging
        import shutil

        store, _, base = served
        shutil.rmtree(store.directory)
        with caplog.at_level(logging.WARNING, logger="repro.sweeps.serve"):
            status, _, body = get(base + "/stats")
        assert status == 503
        assert "store unavailable" in json.loads(body)["error"]
        assert any("unreadable" in r.message for r in caplog.records)
        assert not store.directory.exists()  # the 503 path must not mkdir

    def test_failing_bulk_load_503(self, served, monkeypatch, caplog):
        import logging

        from repro.sweeps import analysis

        def boom(*args, **kwargs):
            raise OSError("sidecar exploded")

        monkeypatch.setattr(analysis.ResultTable, "from_store", boom)
        _, _, base = served
        with caplog.at_level(logging.WARNING, logger="repro.sweeps.serve"):
            status, _, body = get(base + "/columns")
        assert status == 503
        assert "store unavailable" in json.loads(body)["error"]

    def test_missing_store_directory_refused_at_construction(self, tmp_path):
        with pytest.raises(OSError):
            SweepServer(tmp_path / "never-created")
        assert not (tmp_path / "never-created").exists()

    def test_bad_tunables_rejected(self, tmp_path):
        filled_store(tmp_path / "store", n=1, merge=False)
        with pytest.raises(ValueError):
            SweepServer(tmp_path / "store", csv_chunk_rows=0)
        with pytest.raises(ValueError):
            SweepServer(tmp_path / "store", cache_payloads=0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_serve_subcommand_ready_line_and_shutdown(self, tmp_path):
        filled_store(tmp_path / "store")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.sweeps", "serve",
             str(tmp_path / "store")],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("SERVE ready port="), line
            fields = dict(
                part.split("=", 1) for part in line.split()[2:]
            )
            assert set(fields) >= {"port", "store", "generation",
                                   "records", "etag"}
            assert fields["records"] == "12"
            port = int(fields["port"])
            status, headers, body = get(f"http://127.0.0.1:{port}/stats")
            assert status == 200
            assert headers["ETag"] == fields["etag"]
        finally:
            proc.terminate()
            proc.wait(timeout=20)

    def test_serve_missing_store_errors(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro.sweeps", "serve",
             str(tmp_path / "nope")],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1
        assert "does not exist" in result.stderr
        assert not (tmp_path / "nope").exists()

    def test_serve_rejects_bad_flags(self, tmp_path):
        filled_store(tmp_path / "store", n=1, merge=False)
        for flags in (["--port", "-1"], ["--csv-chunk-rows", "0"]):
            result = subprocess.run(
                [sys.executable, "-m", "repro.sweeps", "serve",
                 str(tmp_path / "store"), *flags],
                capture_output=True, text=True, timeout=60,
            )
            assert result.returncode == 2
