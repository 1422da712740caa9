"""Independent checks of the program's outputs.

Nothing here asks the program whether it is right.  Schedules are replayed
gate by gate, success probabilities are recomputed from the paper's Table II
product formula, Monte Carlo counts are tested against the binomial law,
and served aggregations are recomputed with NumPy from the stored records.

Every check adds its outcome to a :class:`Checks` tally; a failure is a
message, and the run is correct only when no message was recorded.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter, defaultdict

import numpy as np

#: Table II of the paper: the error rates and coherence times the analytic
#: success probability is a product over.
TABLE2 = {
    "u3_error": 0.000127, "cz_error": 0.0048, "ccz_error": 0.018,
    "move_error": 0.0001, "trap_switch_error": 0.0001, "readout_error": 0.05,
    "t1_us": 4.0e6, "t2_us": 1.49e6,
}
NOISE_DEFAULT = {
    "include_decoherence": True, "include_readout": False,
    "include_movement": True, "trap_switches_per_resolution": 2,
}
SIGMAS = 6.0
#: Outside 6 sigma, a count still passes when its exact binomial tail is at
#: least this likely (the normal approximation fails when n*p is tiny).
TAIL_FLOOR = 1e-9


class Checks:
    """Tally of checks made and failures seen."""

    def __init__(self) -> None:
        self.items = 0
        self.failures: list = []

    def expect(self, ok: bool, message: str) -> bool:
        self.items += 1
        if not ok:
            self.failures.append(message)
        return ok


# -- Table II product formula ---------------------------------------------------


def log_success(counts: dict, num_qubits: int, spec: dict, noise: dict) -> float:
    """Natural log of the analytic success probability of one schedule."""
    log_p = (
        counts["num_cz"] * math.log1p(-spec["cz_error"])
        + counts["num_u3"] * math.log1p(-spec["u3_error"])
        + counts["num_ccz"] * math.log1p(-spec["ccz_error"])
    )
    if noise["include_movement"]:
        switches = counts["trap_change_events"] * noise["trap_switches_per_resolution"]
        log_p += counts["num_moves"] * math.log1p(-spec["move_error"])
        log_p += switches * math.log1p(-spec["trap_switch_error"])
    if noise["include_decoherence"]:
        rate = 1.0 / spec["t1_us"] + 1.0 / spec["t2_us"]
        log_p -= num_qubits * counts["runtime_us"] * rate
    if noise["include_readout"]:
        log_p += num_qubits * math.log1p(-spec["readout_error"])
    return log_p


def _result_counts(result) -> dict:
    return {
        name: getattr(result, name)
        for name in ("num_cz", "num_u3", "num_ccz", "num_moves",
                     "trap_change_events", "runtime_us")
    }


def _same_probability(log_p: float, value: float) -> bool:
    if value == 0.0:
        return log_p < -740.0
    return abs(math.exp(log_p) - value) <= 1e-9 * value


def quality(results: dict, benchmarks) -> tuple:
    """(Σ Parallax CZ / Σ Graphine CZ, geometric mean of the Parallax /
    Graphine success ratio, geometric mean of the Parallax runtime), from
    the compiled schedules at Table II noise; success ratios are taken in
    log space so deep circuits cannot underflow."""
    cz = {t: sum(results[(b, t)].num_cz for b in benchmarks) for t in ("parallax", "graphine")}
    log_ratio = [
        log_success(_result_counts(results[(b, "parallax")]), results[(b, "parallax")].num_qubits,
                    TABLE2, NOISE_DEFAULT)
        - log_success(_result_counts(results[(b, "graphine")]), results[(b, "graphine")].num_qubits,
                      TABLE2, NOISE_DEFAULT)
        for b in benchmarks
    ]
    runtime = [math.log(results[(b, "parallax")].runtime_us) for b in benchmarks]
    return (
        cz["parallax"] / cz["graphine"],
        math.exp(sum(log_ratio) / len(log_ratio)),
        math.exp(sum(runtime) / len(runtime)),
    )


# -- schedules ------------------------------------------------------------------


def _gate_key(name: str, qubits: tuple, params: tuple) -> tuple:
    return (name, tuple(sorted(qubits)) if name == "cz" else tuple(qubits), tuple(params))


def check_schedule(checks: Checks, label: str, technique: str, result, circuit) -> None:
    """Replay one compiled schedule against its transpiled input.

    SWAPs are followed as relabelings (from the identity placement), so
    every other gate is compared on logical qubits: the multiset of gates,
    and each qubit's gate order, must equal the input's.
    """
    from repro.noise.fidelity import success_probability

    gates = [g for g in circuit.gates if g.name not in ("barrier", "measure")]
    swaps = sum(1 for layer in result.layers for g in layer.gates if g.name == "swap")
    if technique == "parallax":
        checks.expect(result.num_swaps == 0 and swaps == 0,
                      f"{label}: Parallax schedule has {result.num_swaps}/{swaps} SWAPs")
    width = 1 + max([circuit.num_qubits - 1] + [
        q for layer in result.layers for g in layer.gates for q in g.qubits])
    logical = list(range(width))
    seen: Counter = Counter()
    order: dict = defaultdict(list)
    disjoint = True
    for layer in result.layers:
        used = [q for g in layer.gates for q in g.qubits]
        disjoint &= len(used) == len(set(used))
        for g in layer.gates:
            if g.name == "swap":
                a, b = g.qubits
                logical[a], logical[b] = logical[b], logical[a]
                continue
            key = _gate_key(g.name, tuple(logical[q] for q in g.qubits), g.params)
            seen[key] += 1
            for q in key[1]:
                order[q].append(key)
    expected_order: dict = defaultdict(list)
    for g in gates:
        key = _gate_key(g.name, g.qubits, g.params)
        for q in key[1]:
            expected_order[q].append(key)
    checks.expect(seen == Counter(_gate_key(g.name, g.qubits, g.params) for g in gates),
                  f"{label}: scheduled gates differ from the transpiled input")
    checks.expect(dict(order) == dict(expected_order),
                  f"{label}: a qubit's gate order differs from the input")
    checks.expect(disjoint, f"{label}: a layer applies two gates to one qubit")
    input_cz = sum(1 for g in gates if g.name == "cz")
    checks.expect(result.num_cz == input_cz + 3 * result.num_swaps,
                  f"{label}: num_cz {result.num_cz} != {input_cz} + 3 x {result.num_swaps}")
    layer_time = sum(layer.time_us for layer in result.layers)
    checks.expect(math.isclose(result.runtime_us, layer_time, rel_tol=1e-9, abs_tol=1e-9),
                  f"{label}: runtime {result.runtime_us} != layer sum {layer_time}")
    spec = {name: getattr(result.spec, name) for name in TABLE2}
    checks.expect(
        _same_probability(log_success(_result_counts(result), result.num_qubits, spec,
                                      NOISE_DEFAULT), success_probability(result)),
        f"{label}: analytic success differs from the Table II product")


def check_roundtrip(checks: Checks, acronym: str, parsed) -> None:
    """The corpus circuit parsed back equals the registry builder's."""
    from repro.benchcircuits.registry import BENCHMARKS

    built = BENCHMARKS[acronym].builder()
    as_list = lambda c: [(g.name, tuple(g.qubits), tuple(g.params)) for g in c.gates]  # noqa: E731
    checks.expect(parsed.num_qubits == built.num_qubits and as_list(parsed) == as_list(built),
                  f"{acronym}: parsed corpus circuit differs from the registry builder")


def qubit_counts(corpus_dir) -> dict:
    """Qubits per corpus file, read from its ``qreg`` declaration."""
    from pathlib import Path

    out = {}
    for path in Path(corpus_dir).glob("*.qasm"):
        match = re.search(r"qreg\s+q\[(\d+)\]", path.read_text(encoding="utf-8"))
        out[path.stem.rsplit("_", 1)[0].upper()] = int(match.group(1))
    return out


# -- stored records ------------------------------------------------------------


def binomial_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) when k is above the mean of Binomial(n, p), else P(X <= k),
    summed term by term in log space from ``k`` outwards."""
    if p <= 0.0 or p >= 1.0:
        return float(k == (n if p >= 1.0 else 0))
    log_p, log_q = math.log(p), math.log1p(-p)
    step = 1 if k > n * p else -1
    total, j = 0.0, k
    while 0 <= j <= n:
        term = math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * log_p + (n - j) * log_q)
        total += term
        if term < 1e-300 or term < total * 1e-17:
            break
        j += step
    return total


def check_records(checks: Checks, records: list, num_qubits: dict, ids: dict) -> None:
    """Analytic success, binomial counts and monotonicity of ``records``.

    ``num_qubits`` maps acronyms to qubit counts and ``ids`` acronyms to
    the corpus ids the records name.
    """
    acronym = {v: k for k, v in ids.items()}
    n = len(records)
    analytic = np.empty(n)
    log_p = np.empty(n)
    shots = np.empty(n)
    hits = np.empty(n)
    groups_cz: dict = defaultdict(list)
    groups_t2: dict = defaultdict(list)
    groups_ro: dict = defaultdict(dict)
    for i, record in enumerate(records):
        scenario = record["scenario"]
        spec = dict(TABLE2, **scenario["spec_overrides"])
        noise = scenario["noise"]
        log_p[i] = log_success(record["result"], num_qubits[acronym[scenario["benchmark"]]],
                               spec, noise)
        analytic[i] = record["analytic_success"]
        shots[i] = record["outcome"]["shots"]
        hits[i] = record["outcome"]["successes"]
        ident = (scenario["benchmark"], scenario["technique"], scenario["shots"])
        cz, t2, ro = spec["cz_error"], spec["t2_us"], noise["include_readout"]
        groups_cz[ident + (t2, ro)].append((cz, analytic[i]))
        groups_t2[ident + (cz, ro)].append((t2, analytic[i]))
        groups_ro[ident + (cz, t2)][ro] = analytic[i]
    p = np.exp(log_p)
    close = np.where(analytic == 0.0, log_p < -740.0, np.abs(p - analytic) <= 1e-9 * analytic)
    for i in np.flatnonzero(~close)[:5]:
        checks.expect(False, f"record {records[i]['key'][:12]}: analytic success "
                             f"{analytic[i]!r} != Table II product {p[i]!r}")
    checks.expect(bool(close.all()), f"{int((~close).sum())} records fail the Table II product")

    sigma = np.sqrt(shots * p * (1.0 - p))
    inside = np.abs(hits - shots * p) <= SIGMAS * sigma
    outside = np.flatnonzero(~inside)
    bad = [i for i in outside if binomial_tail(int(hits[i]), int(shots[i]), p[i]) < TAIL_FLOOR]
    for i in bad[:5]:
        checks.expect(False, f"record {records[i]['key'][:12]}: {int(hits[i])}/{int(shots[i])} "
                             f"successes is beyond {SIGMAS:g} sigma of p={p[i]:.6g}")
    checks.expect(not bad, f"{len(bad)} records fail the binomial test")

    falls = all(
        all(a[1] > b[1] for a, b in zip(s, s[1:]))
        for s in (sorted(v) for v in groups_cz.values())
    )
    checks.expect(falls, "analytic success does not strictly fall as cz_error rises")
    rises = all(
        all(a[1] <= b[1] for a, b in zip(s, s[1:]))
        for s in (sorted(v) for v in groups_t2.values())
    )
    checks.expect(rises, "analytic success falls as t2_us rises")
    readout = all(pair[True] <= pair[False] for pair in groups_ro.values() if len(pair) == 2)
    checks.expect(readout, "readout-on beats readout-off")


def check_store(checks: Checks, store, records: list, csv_text: str) -> None:
    """The store holds exactly ``records`` (unique keys, each read back by
    ``store.get`` equal), and the analyze CSV has one row per scenario with
    the stored success rates, in key order."""
    keys = [r["key"] for r in records]
    checks.expect(len(set(keys)) == len(keys), "the swept records repeat a key")
    stats = store.stats()
    checks.expect(stats.loose + stats.sealed == len(set(keys)),
                  f"store holds {stats.loose + stats.sealed} records, swept {len(set(keys))}")
    by_key = {}
    mismatched = 0
    for record in records:
        stored = store.get(record["key"])
        mismatched += stored != record
        by_key[record["key"]] = stored
    checks.expect(mismatched == 0, f"{mismatched} records read back differently")
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    checks.expect(len(rows) == len(by_key), f"CSV has {len(rows)} rows for {len(by_key)} scenarios")
    wrong = sum(
        row["benchmark"] != rec["scenario"]["benchmark"]
        or float(row["success_rate"]) != rec["outcome"]["success_rate"]
        for row, rec in zip(rows, (by_key[k] for k in sorted(by_key)))
    )
    checks.expect(wrong == 0, f"{wrong} CSV rows differ from the records read through store.get")


# -- served responses -------------------------------------------------------------


def _group(records: list, value: str, over: str | None) -> tuple:
    """NumPy group-by of ``value`` over (benchmark, technique[, over]), with
    the records in key order (the order the program's table sums in).
    Returns the sorted group keys, each record's group index, and values."""
    records = sorted(records, key=lambda r: r["key"])
    labels = [
        (r["scenario"]["benchmark"], r["scenario"]["technique"])
        + ((r["scenario"]["spec_overrides"][over],) if over else ())
        for r in records
    ]
    keys = sorted(set(labels))
    index = {key: i for i, key in enumerate(keys)}
    inverse = np.fromiter((index[label] for label in labels), dtype=np.intp, count=len(labels))
    values = np.array([_value(r, value) for r in records])
    return keys, inverse, values


def _value(record: dict, name: str) -> float:
    return record["analytic_success"] if name == "analytic_success" else record["outcome"][name]


def expected_marginal(records: list, value: str, over: str | None, agg: str) -> list:
    keys, inverse, values = _group(records, value, over)
    count = np.bincount(inverse, minlength=len(keys))
    if agg == "mean":
        out = np.bincount(inverse, weights=values, minlength=len(keys)) / count
    else:
        out = np.full(len(keys), -np.inf)
        np.maximum.at(out, inverse, values)
    return [list(key) + [float(v), int(c)] for key, v, c in zip(keys, out, count)]


def expected_pivot(records: list, value: str) -> tuple:
    """Rows of benchmark x technique mean ``value``; benchmarks in order of
    first appearance in key order, techniques sorted."""
    ordered = sorted(records, key=lambda r: r["key"])
    keys, inverse, values = _group(records, value, None)
    mean = np.bincount(inverse, weights=values) / np.bincount(inverse)
    cell = {key: float(v) for key, v in zip(keys, mean)}
    benches = list(dict.fromkeys(r["scenario"]["benchmark"] for r in ordered))
    techs = sorted({r["scenario"]["technique"] for r in ordered})
    return ["benchmark"] + techs, [[b] + [cell.get((b, t)) for t in techs] for b in benches]


def _rows_equal(got: list, want: list) -> bool:
    """Exact equality: both sides sum in key order, so means agree to the
    last bit and any changed digit shows."""
    return json.loads(json.dumps(got)) == json.loads(json.dumps(want))


def check_served(checks: Checks, observations: list, records: list, gen_counts: list,
                 store, slice_size: int) -> None:
    """Every served response against the records of its generation."""
    verified: set = set()
    gen_etag: dict = {}
    stale_ok = True
    for generation, index, route, path, sent, status, etag, body, *_ in observations:
        label = f"gen {generation} read {index} {path[:48]}"
        if not checks.expect(status in (200, 304), f"{label}: HTTP {status}"):
            continue
        if status == 200:
            if generation in gen_etag:
                checks.expect(etag == gen_etag[generation], f"{label}: ETag changed within a generation")
            else:
                checks.expect(etag not in gen_etag.values(), f"{label}: ETag did not move")
                gen_etag[generation] = etag
            if sent is not None and sent == etag:
                stale_ok = False
        else:
            checks.expect(sent is not None and sent == gen_etag.get(generation),
                          f"{label}: 304 for a tag that is not the current ETag")
            continue
        fingerprint = (generation, path, body)
        if fingerprint in verified:
            continue
        verified.add(fingerprint)
        generation_records = records[: gen_counts[generation]]
        try:
            payload = json.loads(body) if route != "csv" else None
        except ValueError:
            checks.expect(False, f"{label}: body is not JSON")
            continue
        if route == "stats":
            count = payload["loose"] + payload["sealed"]
            checks.expect(count == gen_counts[generation],
                          f"{label}: /stats counts {count}, expected {gen_counts[generation]}")
            if generation:
                checks.expect(gen_counts[generation] - gen_counts[generation - 1] == slice_size,
                              f"{label}: writer step added {gen_counts[generation] - gen_counts[generation - 1]}")
        elif route == "record":
            checks.expect(payload == store.get(path.rsplit("/", 1)[1]),
                          f"{label}: record differs from store.get")
        elif route in ("marginal", "marginal2"):
            params = payload["params"]
            want = expected_marginal(generation_records, params["value"], params["over"], params["agg"])
            checks.expect(_rows_equal(payload["rows"], want),
                          f"{label}: marginal differs from the NumPy group-by")
        elif route == "pivot":
            names, want = expected_pivot(generation_records, payload["params"]["value"])
            checks.expect(payload["names"] == names and _rows_equal(payload["rows"], want),
                          f"{label}: pivot differs from the NumPy group-by")
        elif route == "crossovers":
            checks.expect(payload["count"] == len(payload["crossovers"]),
                          f"{label}: crossover count mismatch")
        elif route == "csv":
            text = body.decode("utf-8")
            rows = list(csv.DictReader(io.StringIO(text)))
            ordered = sorted(generation_records, key=lambda r: r["key"])
            same = len(rows) == len(ordered) and all(
                float(row["success_rate"]) == rec["outcome"]["success_rate"]
                and float(row["analytic_success"]) == rec["analytic_success"]
                for row, rec in zip(rows, ordered)
            )
            checks.expect(same, f"{label}: served CSV differs from the records")
    checks.expect(stale_ok, "a request carrying the current ETag was answered 200")
