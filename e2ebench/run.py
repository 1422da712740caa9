"""End-to-end and per-layer benchmark of the sweep/compile/store/serve stack.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --small          # all three workloads, small, in seconds
    python3 e2ebench/run.py --self-test      # every check must fail on damaged input

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics
of one session; ``--trace 1`` runs an untraced session and then a traced
replay of it, and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.  See
``e2ebench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def run_checks(checks, session, daemon) -> None:
    """Every check of one untraced session."""
    from checks import check_records, check_roundtrip, check_schedule, check_served
    from checks import check_store, qubit_counts
    from repro.benchcircuits import get_benchmark
    from repro.sweeps import SweepStore

    wl = session.wl
    for bench in wl.benchmarks:
        check_roundtrip(checks, bench, get_benchmark(session.ids[bench]))
    for (bench, technique), result in session.results.items():
        check_schedule(checks, f"{bench}/{technique}", technique, result,
                       session.circuits[bench])
    store = SweepStore(daemon.store_dir)
    check_records(checks, session.records, qubit_counts(daemon.corpus_dir), session.ids)
    check_store(checks, store, session.records, session.csv)
    check_served(checks, session.observations, session.records, session.gen_counts,
                 store, wl.slice_size)
    for index, same in enumerate(session.pass_csv_ok):
        checks.expect(same, f"cold pass {index} analyzes to another CSV than the base store")


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool,
                 work: Path) -> dict:
    from checks import Checks
    from session import Daemon, Session, warm_imports
    from workloads import make_workload

    wl = make_workload(name, seed, small)
    warm_imports()
    daemons = []
    try:
        reps = 1 if small else SETUP_REPS
        for rep in range(reps):
            daemons.append(Daemon(wl, work / f"setup{rep}", small))
            if rep < reps - 1:
                daemons[-1].stop()
        live = daemons[-1]
        setup_s = statistics.median(d.setup_s for d in daemons)
        session = Session(wl, live, trace=False)
        session.run(seconds)
        if wl.build_at_setup:
            peak_rss_mb = live.peak_rss_mb()
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = Checks()
        checks_start = time.perf_counter()
        run_checks(checks, session, live)
        checks_s = time.perf_counter() - checks_start
        attempted = session.attempted()
        print(
            f"WORKLOAD {name} seed={seed} rounds={session.rounds} "
            f"reads={len(session.observations)} scenarios={session.scenarios} "
            f"session_s={session.session_s:.3f} checks_s={checks_s:.3f}"
        )
        print(
            f"OPS compiles={session.counts['compiles']} evaluations={session.scenarios} "
            f"store_ops={session.store_ops} http={len(session.observations)} "
            f"http_failed={session.http_failures()} checks={checks.items} "
            f"checks_failed={len(checks.failures)}"
        )
        if not trace:
            metrics = session.end_to_end(peak_rss_mb)
            metrics["setup_s"] = (setup_s, "s")
        else:
            live.stop()
            traced_daemon = Daemon(wl, work / "traced", small)
            daemons.append(traced_daemon)
            traced = Session(wl, traced_daemon, trace=True)
            untraced_csv = session.csv
            session.records = session.observations = session.results = None
            traced.run(seconds, rounds=session.rounds)
            attempted += traced.attempted()
            checks.expect(traced.csv == untraced_csv,
                          "the traced session's analyze CSV differs from the untraced one's")
            checks.expect(all(traced.pass_csv_ok),
                          "a traced cold pass analyzes to another CSV than the base store")
            metrics = traced.per_layer(untraced=session)
        for message in checks.failures[:20]:
            print(f"FAIL {message}")
        for metric, (value, unit) in metrics.items():
            print(f"METRIC {metric} {value:.6g} {unit}")
        return {
            "correct": not checks.failures,
            "attempted": attempted + checks.items,
            "failed": len(checks.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        for daemon in daemons:
            daemon.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="run all three workloads, untraced and traced, on small inputs")
    parser.add_argument("--self-test", action="store_true",
                        help="show that every check fails on damaged input")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    if not (args.workload or args.small or args.self_test):
        parser.error("give --workload, --small or --self-test")
    sys.path[:0] = [str(SRC)]
    work = WORK / f"run-{os.getpid()}"
    try:
        if args.self_test:
            from selftest import self_test

            return self_test(work)
        if args.small:
            ok = True
            for name in WORKLOADS:
                for trace in (False, True):
                    result = run_workload(name, args.seed, min(args.seconds, 2.0), trace,
                                          True, work / f"{name}-{int(trace)}")
                    ok &= result["correct"]
                    print(json.dumps({"workload": name, "trace": trace, **result}))
            return 0 if ok else 1
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              False, work)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    except Exception:  # noqa: BLE001 - report, then fail the run without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
