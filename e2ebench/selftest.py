"""Mutation self-test: every check must pass on clean input and fail on
input damaged in one place.

    python3 e2ebench/run.py --self-test

Damage cases: an injected SWAP, two gates reordered on one qubit, a dropped
gate, a shifted layer time, one record's success count pushed out of
range, and one served byte changed.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import replace
from pathlib import Path

from checks import Checks, check_records, check_schedule, check_served, qubit_counts


def _failures(check, *args) -> int:
    checks = Checks()
    check(checks, *args)
    return len(checks.failures)


def _mutations(result) -> dict:
    """The four schedule damage cases, each applied to a copy of a
    Parallax ``result``."""
    layers = list(result.layers)
    first = next(i for i, layer in enumerate(layers) if layer.gates)
    out = {}

    from repro.circuit.gate import Gate

    for at, layer in enumerate(layers):
        busy = {q for g in layer.gates for q in g.qubits}
        free = [q for q in range(result.num_qubits) if q not in busy][:2]
        if len(free) == 2:
            break
    swapped = list(layers)
    swapped[at] = replace(layers[at], gates=layers[at].gates + (Gate("swap", tuple(free)),))
    out["injected SWAP"] = replace(result, layers=swapped, num_swaps=1, num_cz=result.num_cz + 3)

    last_u3: dict = {}
    for i, layer in enumerate(layers):
        for g in layer.gates:
            if g.name == "u3":
                prev = last_u3.get(g.qubits[0])
                if prev is not None and prev[1].params != g.params:
                    j, h = prev
                    reordered = list(layers)
                    reordered[j] = replace(layers[j], gates=tuple(g if x is h else x for x in layers[j].gates))
                    reordered[i] = replace(layers[i], gates=tuple(h if x is g else x for x in layers[i].gates))
                    out["reordered gates"] = replace(result, layers=reordered)
                    break
                last_u3[g.qubits[0]] = (i, g)
        if "reordered gates" in out:
            break

    dropped = list(layers)
    dropped[first] = replace(layers[first], gates=layers[first].gates[1:])
    out["dropped gate"] = replace(result, layers=dropped)

    shifted = list(layers)
    shifted[first] = replace(layers[first], time_us=layers[first].time_us + 1.0)
    out["shifted layer time"] = replace(result, layers=shifted)
    return out


def self_test(work: Path) -> int:
    from repro.benchcircuits.io import export_benchmark_suite, suite_workload_ids
    from repro.experiments.common import clear_caches, compile_points, prepared_circuit
    from repro.hardware.spec import HardwareSpec
    from repro.qasm.corpus import activate_corpus
    from repro.sweeps import SweepGrid, SweepStore
    from repro.sweeps.runner import run_sweep
    from repro.sweeps.serve import SweepServer
    from session import Reader
    from workloads import ROUTES

    clear_caches()
    corpus = work / "corpus"
    export_benchmark_suite(str(corpus), benchmarks=("ADD", "QEC"))
    activate_corpus(str(corpus))
    ids = suite_workload_ids(str(corpus))
    spec = HardwareSpec.quera_aquila()
    outcomes = []

    for bench in ("ADD", "QEC"):
        circuit = prepared_circuit(ids[bench])
        for technique in ("parallax", "graphine", "eldi"):
            (result,) = compile_points([(ids[bench], technique, spec)])
            outcomes.append((f"clean {bench}/{technique} schedule", _failures(
                check_schedule, bench, technique, result, circuit) == 0))
            if technique == "parallax":
                for name, damaged in _mutations(result).items():
                    outcomes.append((f"{name} ({bench})", _failures(
                        check_schedule, bench, technique, damaged, circuit) > 0))

    grid = SweepGrid(
        benchmarks=(ids["ADD"], ids["QEC"]), techniques=("parallax", "graphine"),
        spec_axes={"cz_error": (0.002, 0.004, 0.008)},
        noise_axes={"include_readout": (False, True)}, shots=500, base_seed=3,
    )
    store_dir = work / "store"
    records = list(run_sweep(grid, SweepStore(store_dir), seal=True, merge=True).records)
    qubits = qubit_counts(corpus)
    outcomes.append(("clean records", _failures(check_records, records, qubits, ids) == 0))
    pushed = copy.deepcopy(records)
    victim = pushed[len(pushed) // 2]
    victim["outcome"]["successes"] = (
        victim["outcome"]["shots"] if victim["analytic_success"] < 0.5 else 0
    )
    outcomes.append(("success count out of range",
                     _failures(check_records, pushed, qubits, ids) > 0))

    server = SweepServer(store_dir)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        reader = Reader(server.port)
        observations = []
        for index, (route, path) in enumerate([
            ("record", "/records/" + records[0]["key"]),
            ("marginal", ROUTES["marginal"]),
            ("pivot", ROUTES["pivot"]),
        ]):
            status, etag, body, latency = reader.get(path, None)
            observations.append((0, index, route, path, None, status, etag, body, latency, False))
        reader.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    store = SweepStore(store_dir)
    served = (records, [len(records)], store, len(records))
    outcomes.append(("clean served responses",
                     _failures(check_served, observations, *served) == 0))
    for victim_index in range(len(observations)):
        damaged = list(observations)
        body = bytearray(damaged[victim_index][7])
        at = next(i for i in range(len(body) - 1, -1, -1) if chr(body[i]).isdigit()
                  and body[i] != ord("0") and chr(body[i - 1]).isdigit())
        body[at] = ord("0") + (body[at] - ord("0") + 1) % 10
        damaged[victim_index] = damaged[victim_index][:7] + (bytes(body),) + damaged[victim_index][8:]
        outcomes.append((f"served byte changed ({damaged[victim_index][2]})",
                         _failures(check_served, damaged, *served) > 0))

    for name, ok in outcomes:
        print(f"SELFTEST {'ok  ' if ok else 'FAIL'} {name}")
    failed = [name for name, ok in outcomes if not ok]
    print(f"SELFTEST cases={len(outcomes)} failed={len(failed)}")
    return 1 if failed else 0
