"""Query-daemon latency gate: generation-cached HTTP pivots vs cold
in-process queries, plus p50/p99 under concurrent clients.

The daemon's reason to exist is that a fleet of readers should not each
pay a full ``ResultTable.from_store`` bulk load per question.  The
acceptance bar, measured on a 5x10^4-record sidecar store:

- **cached HTTP pivot >= 5x faster than a cold in-process query** --
  p50 round-trip latency of ``GET /pivot?...`` against a warm daemon
  (the generation-keyed cache holds the rendered payload; each request
  still pays the full HTTP round trip *and* the per-request
  ``store_token`` revalidation stat walk) must beat the p50 of building
  ``ResultTable.from_store`` + ``pivot()`` from scratch by at least 5x.
  If the generation cache silently stopped being keyed right -- rebuilt
  per request -- the ratio collapses and the gate fails.

Alongside the gate, parity is asserted first (the served payload must
equal the in-process :func:`~repro.sweeps.analysis.pivot_payload`
byte-for-byte), and a concurrent-client pass records p50/p99 across 8
threads hammering mixed endpoints -- recorded in the trajectory for
trend visibility, and sanity-bounded: even the p99 under concurrency
must still beat one cold in-process query.
"""

import hashlib
import json
import threading
import time
import urllib.request

import pytest

from repro import __version__
from repro.sweeps import SweepStore
from repro.sweeps import segments as seg
from repro.sweeps.analysis import ResultTable, pivot_payload
from repro.sweeps.serve import SweepServer
from repro.sweeps.store import SCHEMA_VERSION

RECORDS = 50_000
GATE = 5.0
#: The measured ratio saturates far beyond the gate (100-300x: the cached
#: path is one ~1ms HTTP round trip, and sub-millisecond latencies jitter
#: 2x between runs of the same machine).  The *gated* trajectory ratio is
#: capped here so the 25% trend comparison tracks "still comfortably
#: cached" instead of flaking on localhost RTT noise; the raw ratio is
#: recorded alongside for trend visibility.
TREND_CAP = 25.0
CLIENTS = 8
REQUESTS_PER_CLIENT = 25
PIVOT_PATH = "/pivot?index=benchmark&column=technique&value=analytic_success"


def synth_record(i: int) -> tuple[str, dict]:
    """A schema-complete record carrying the envelope fields ``put``
    would add, so it packs straight into segments (no loose writes)."""
    key = hashlib.sha256(f"perf-serve-{i}".encode()).hexdigest()
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


def _packed_store(directory) -> SweepStore:
    """One 5x10^4-record generation-1 sidecar store, the shape a merged
    production store has when the daemon sits in front of it."""
    directory.mkdir()
    records = dict(synth_record(i) for i in range(RECORDS))
    ordered = sorted(records)
    entries: dict = {}
    columns: dict = {}
    namer = seg.generation_segment_namer(1)
    for start in range(0, RECORDS, SweepStore.DEFAULT_MERGE_TARGET):
        chunk = [
            records[k]
            for k in ordered[start : start + SweepStore.DEFAULT_MERGE_TARGET]
        ]
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
    return SweepStore(directory)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    base = tmp_path_factory.mktemp("perf-serve")
    store = _packed_store(base / "store")
    assert len(list((base / "store").glob(seg.SIDECAR_PATTERN))) >= 1
    server = SweepServer(base / "store")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield store, f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url) as response:
        assert response.status == 200
        return response.read()


def _percentile(samples: list, q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _cold_pivot(directory) -> dict:
    """What every reader pays without the daemon: a fresh store view,
    a full bulk load, and the aggregation -- per query."""
    table = ResultTable.from_store(SweepStore(directory))
    return pivot_payload(
        table, index="benchmark", column="technique",
        value="analytic_success",
    )


def test_cached_pivot_at_least_5x_faster_than_cold_query(daemon, perf):
    store, base = daemon

    # Parity first: the daemon must serve the exact in-process payload,
    # or the latency ratio measures nothing.
    served = json.loads(_get(base + PIVOT_PATH))
    want = json.loads(json.dumps(_cold_pivot(store.directory)))
    assert served == want

    # Warm: the generation cache now holds the rendered payload.
    for _ in range(2):
        _get(base + PIVOT_PATH)

    cached: list = []
    for _ in range(21):
        start = time.perf_counter()
        _get(base + PIVOT_PATH)
        cached.append(time.perf_counter() - start)

    cold: list = []
    for _ in range(5):
        start = time.perf_counter()
        _cold_pivot(store.directory)
        cold.append(time.perf_counter() - start)

    p50_cached = _percentile(cached, 0.50)
    p50_cold = _percentile(cold, 0.50)
    speedup_raw = p50_cold / p50_cached
    perf(
        "serve.cached_pivot_vs_cold",
        records=RECORDS,
        cached_p50_s=p50_cached,
        cached_p99_s=_percentile(cached, 0.99),
        cold_p50_s=p50_cold,
        speedup=min(speedup_raw, TREND_CAP),
        speedup_raw=speedup_raw,
        gate=GATE,
    )
    assert speedup_raw >= GATE, (
        f"generation-cached /pivot p50 only {speedup_raw:.1f}x faster than "
        f"a cold in-process query ({p50_cached * 1e3:.2f} ms vs "
        f"{p50_cold * 1e3:.2f} ms over {RECORDS} records)"
    )


def test_concurrent_client_latency_recorded_and_bounded(daemon, perf):
    store, base = daemon
    paths = [
        PIVOT_PATH,
        "/marginal",
        "/stats",
        "/crossovers?axis=cz_error",
    ]
    for path in paths:  # warm every payload once
        _get(base + path)

    latencies: list = []
    lock = threading.Lock()
    failures: list = []

    def client(worker: int) -> None:
        mine: list = []
        try:
            for j in range(REQUESTS_PER_CLIENT):
                path = paths[(worker + j) % len(paths)]
                start = time.perf_counter()
                _get(base + path)
                mine.append(time.perf_counter() - start)
        except Exception as exc:
            with lock:
                failures.append(repr(exc))
            return
        with lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=client, args=(worker,))
        for worker in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)

    assert not failures
    assert len(latencies) == CLIENTS * REQUESTS_PER_CLIENT

    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)

    start = time.perf_counter()
    _cold_pivot(store.directory)
    cold_s = time.perf_counter() - start

    # Recorded (no `speedup` field -> trend-visible, not trend-gated:
    # tail latency under thread contention is too jittery for a hard
    # cross-machine ratio), but sanity-bounded right here: even p99
    # under 8 hammering clients must beat one cold in-process query.
    perf(
        "serve.concurrent_clients",
        records=RECORDS,
        clients=CLIENTS,
        requests=len(latencies),
        p50_s=p50,
        p99_s=p99,
        cold_p50_s=cold_s,
    )
    assert p99 < cold_s, (
        f"concurrent cached p99 {p99 * 1e3:.2f} ms did not beat one cold "
        f"in-process query ({cold_s * 1e3:.2f} ms)"
    )
