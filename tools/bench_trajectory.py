#!/usr/bin/env python3
"""Maintain and trend-gate the committed perf trajectory.

The speedup-gate benchmark modules write one machine-readable run file
(``$PERF_JSON``, see ``benchmarks/conftest.py``).  This tool turns those
runs into a *committed, trend-gated artifact*:

- ``append`` folds a fresh run file into a trajectory file as one
  per-PR snapshot (``BENCH_8.json`` is the committed trajectory)::

      python tools/bench_trajectory.py append \
          --run BENCH_RUN.json --trajectory BENCH_8.json --pr 8

- ``compare`` gates a fresh run against the latest committed snapshot
  and exits non-zero when any gated measurement regressed by more than
  ``--threshold`` (default 25%)::

      python tools/bench_trajectory.py compare \
          --run BENCH_RUN.json --trajectory BENCH_8.json

Only dimensionless **speedup ratios** are gated (every entry carrying a
``speedup`` field).  Absolute seconds are recorded for context but never
compared: CI runners and the machine that produced the committed
snapshot differ in raw speed, while a ratio of two timings taken on the
same box in the same process is hardware-portable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

DEFAULT_THRESHOLD = 0.25


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _run_entries(run: dict) -> list[dict]:
    entries = run.get("entries")
    if not isinstance(entries, list) or not entries:
        raise SystemExit(f"error: run file has no perf entries")
    return entries


def _gated(entries: list[dict]) -> dict[str, float]:
    """name -> speedup for every ratio-carrying entry."""
    return {
        e["name"]: float(e["speedup"])
        for e in entries
        if "speedup" in e and "name" in e
    }


def _append(args: argparse.Namespace) -> int:
    run = _load(args.run)
    try:
        trajectory = _load(args.trajectory)
    except FileNotFoundError:
        trajectory = {"schema_version": 1, "snapshots": []}
    snapshot = {
        "pr": args.pr,
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "engine_version": run.get("engine_version"),
        "python": run.get("python"),
        "platform": run.get("platform"),
        "entries": _run_entries(run),
    }
    snapshots = [s for s in trajectory["snapshots"] if s.get("pr") != args.pr]
    snapshots.append(snapshot)
    snapshots.sort(key=lambda s: (s.get("pr") is None, s.get("pr")))
    trajectory["snapshots"] = snapshots
    with open(args.trajectory, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"appended PR {args.pr} snapshot ({len(snapshot['entries'])} entries, "
        f"{len(_gated(snapshot['entries']))} gated) to {args.trajectory}"
    )
    return 0


def _compare(args: argparse.Namespace) -> int:
    run = _load(args.run)
    trajectory = _load(args.trajectory)
    snapshots = trajectory.get("snapshots") or []
    if not snapshots:
        raise SystemExit(f"error: {args.trajectory} holds no snapshots")
    baseline = snapshots[-1]
    committed = _gated(baseline["entries"])
    fresh = _gated(_run_entries(run))
    if not committed:
        raise SystemExit("error: committed snapshot has no gated ratios")

    failures = []
    for name, want in sorted(committed.items()):
        got = fresh.get(name)
        if got is None:
            failures.append(f"{name}: gated ratio missing from fresh run")
            continue
        floor = want * (1.0 - args.threshold)
        status = "OK " if got >= floor else "FAIL"
        print(
            f"{status} {name}: fresh {got:.2f}x vs committed {want:.2f}x "
            f"(floor {floor:.2f}x)"
        )
        if got < floor:
            failures.append(
                f"{name}: {got:.2f}x is more than "
                f"{args.threshold:.0%} below the committed {want:.2f}x"
            )
    extra = sorted(set(fresh) - set(committed))
    if extra:
        print(f"note: ungated new ratios (append a snapshot): {', '.join(extra)}")
    if failures:
        print("PERF REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        f"perf trajectory OK: {len(committed)} gated ratios within "
        f"{args.threshold:.0%} of PR {baseline.get('pr')} snapshot"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/bench_trajectory.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_append = sub.add_parser(
        "append", help="fold a fresh run file into the trajectory"
    )
    p_append.add_argument("--run", required=True, help="fresh $PERF_JSON file")
    p_append.add_argument(
        "--trajectory", required=True, help="trajectory file to update"
    )
    p_append.add_argument(
        "--pr", type=int, required=True,
        help="PR number this snapshot belongs to (replaces an existing "
        "snapshot for the same PR)",
    )
    p_append.set_defaults(func=_append)

    p_compare = sub.add_parser(
        "compare",
        help="gate a fresh run against the latest committed snapshot",
    )
    p_compare.add_argument("--run", required=True, help="fresh $PERF_JSON file")
    p_compare.add_argument(
        "--trajectory", required=True, help="committed trajectory file"
    )
    p_compare.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="allowed fractional regression per gated ratio "
        f"(default: {DEFAULT_THRESHOLD})",
    )
    p_compare.set_defaults(func=_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
