"""Command-line scenario-sweep driver.

Examples::

    python -m repro.sweeps --preset smoke --shots 200
    python -m repro.sweeps --jobs 8 --eval-jobs 8 --store sweep-out
    python -m repro.sweeps --store sweep-out --resume --jobs 8
    python -m repro.sweeps --eval-jobs 8 --seal --store sweep-out
    python -m repro.sweeps --workers 4 --store sweep-out
    python -m repro.sweeps --benchmarks ADD,QAOA --techniques parallax \\
        --spec-axis cz_error=0.0024,0.0048,0.0096 \\
        --noise-axis include_readout=false,true --shots 2000
    python -m repro.sweeps --corpus path/to/qasm-suite --techniques all \\
        --store sweep-out --shots 2000
    python -m repro.sweeps --benchmarks QAOA --techniques parallax \\
        --config-axis placement_seed=0,1,2 --config-axis return_home=true,false
    python -m repro.sweeps worker sweep-out --preset smoke --shots 200
    python -m repro.sweeps worker sweep-out --preset smoke --lease-range 64
    python -m repro.sweeps --eval-jobs 8 --seal --merge-every 4 --store sweep-out
    python -m repro.sweeps compact sweep-out
    python -m repro.sweeps merge sweep-out
    python -m repro.sweeps merge sweep-out --jobs 4
    python -m repro.sweeps stats sweep-out
    python -m repro.sweeps stats sweep-out --json
    python -m repro.sweeps serve sweep-out --port 8787
    python -m repro.sweeps analyze sweep-out
    python -m repro.sweeps analyze sweep-out --metric success_rate \\
        --axis cz_error --csv sweep-out.csv

``--store DIR`` persists every scenario record as it is evaluated;
rerunning with ``--resume`` skips everything already on disk, so an
interrupted sweep continues where it stopped.  ``--jobs`` shards the
compilation phase and ``--eval-jobs`` the Monte Carlo evaluation phase;
results are bit-identical for any value of either.  Every run prints one
stable machine-readable summary line (``RESUME computed=N resumed=M
scenarios=S compilations=C``, with any newer fields appended after these
four) for scripts and CI to grep -- see ``docs/store-format.md`` for the
full contract.

``--corpus DIR`` opens the workload axis: every ``.qasm`` file under DIR
becomes a sweep benchmark with a stable content-derived workload id
(``<STEM>-<SHA256[:8]>``); files the parser rejects are skipped with one
``corpus: skipped <file>: <reason>`` line each, followed by a stable
``CORPUS dir=... workloads=N skipped=K`` census line.  ``--config-axis
FIELD=V1,V2`` sweeps technique-config knobs (placement method/seed,
router strategy/window, scheduler seed, return-home) as ordinary grid
axes -- each combination compiles separately and lands in the store and
analyze output as ordinary columns.

``worker`` runs one coordinator-free work-stealing worker
(:mod:`repro.sweeps.distributed`): it claims pending scenario keys through
atomically-created lease files in the store, evaluates them, and exits
when the grid is complete.  Start any number of workers -- same host or
many hosts sharing the store's filesystem -- with the *same grid flags*;
the final store is byte-identical to a single-process run.  ``--workers N``
on a plain run is the local spawn-and-join form of the same thing.

``compact`` seals a store's loose per-scenario JSON files into packed,
checksummed segment files (:mod:`repro.sweeps.segments`) behind a
sharded, append-only manifest: resume semantics are unchanged, but a full
store load becomes O(segments) bulk reads -- the difference between
seconds and minutes at ~10^6 records -- and each new segment publishes
with one fsynced delta-log append, O(new records) not O(store).
Idempotent and safe to re-run at any time, including around a killed
previous compaction.  Prints one stable ``COMPACT sealed=N deduped=D
skipped=S segment=...`` line.  ``--seal`` on a sweep run compacts each
evaluation chunk as it completes instead.

``merge`` folds a store down to one fresh generation: loose records are
sealed, small segments rewrite into large generation-tagged ones, the
manifest delta log is checkpointed into fresh key-prefix shards, and
everything superseded is garbage-collected.  Idempotent and kill-safe at
every point.  Prints one stable ``MERGE sealed=... merged=...
generation=...`` line.  ``--merge`` on a sweep run merges once the
sweep finishes; ``merge --jobs N`` rewrites the merged segments over a
process pool (byte-identical output); ``--merge-every N`` on a run or
worker folds segments *mid-sweep* whenever the pending manifest delta
count reaches N, electing at most one merger at a time through the
exclusive merge lock.

``stats`` prints the store census -- one stable ``STATS loose=... ``
line plus a human-readable summary -- without running anything;
``stats --json`` emits the same fields as one JSON object.

``serve`` starts the long-lived HTTP query daemon
(:mod:`repro.sweeps.serve`): JSON ``/stats``, ``/columns``,
``/records/<key>``, ``/marginal``, ``/pivot``, ``/crossovers`` and
chunk-streamed ``/csv`` off the store's mmap'd sidecar columns, with hot
aggregations cached per manifest generation and the generation token
served as the HTTP ``ETag`` (clients revalidate with ``If-None-Match``;
a ``merge``/``compact``/sweep landing under the live daemon flips the
tag and fresh bytes are served).  Prints one stable ``SERVE ready
port=... store=... generation=... records=... etag=...`` line once the
socket is bound, then blocks until interrupted.

``analyze`` loads a store into the unified
:class:`~repro.sweeps.analysis.ResultTable` (bulk-reading packed segments
when present), prints per-(benchmark, technique) marginals, detects sweep
axes, and reports technique crossovers ("at what cz_error does ELDI
overtake Graphine?").
"""

from __future__ import annotations

import argparse
import sys

from repro.hardware.spec import HardwareSpec
from repro.sweeps.analysis import (
    METRIC_COLUMNS,
    ResultTable,
    render_store_summary,
    technique_summary,
)
from repro.sweeps.grid import SweepGrid
from repro.sweeps.store import SweepStore

__all__ = ["main"]

_MACHINES = {
    "quera": HardwareSpec.quera_aquila,
    "atom": HardwareSpec.atom_computing,
}


def _parse_value(token: str):
    """Axis value literal: int, float, bool, or bare string."""
    lowered = token.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token.strip()


def _parse_axes(entries: list[str] | None) -> dict:
    """``FIELD=v1,v2,...`` option strings -> axis mapping."""
    axes: dict = {}
    for entry in entries or []:
        name, _, values = entry.partition("=")
        if not values:
            raise argparse.ArgumentTypeError(
                f"axis {entry!r} must look like FIELD=VALUE[,VALUE...]"
            )
        axes[name.strip()] = tuple(_parse_value(v) for v in values.split(","))
    return axes


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Grid-shape flags shared by the run and worker entry points.

    Workers of one fleet must be started with identical grid flags: the
    grid is what determines the shared key set they steal work from.
    """
    parser.add_argument(
        "--preset",
        choices=("smoke", "default"),
        default="default",
        help="base grid: 'default' is 108 scenarios over CZ error, T2, and "
        "readout; 'smoke' is an 8-scenario CI grid (default: default)",
    )
    parser.add_argument(
        "--benchmarks", default=None, metavar="CSV",
        help="comma-separated Table III acronyms overriding the preset",
    )
    parser.add_argument(
        "--techniques", default=None, metavar="CSV",
        help="comma-separated technique names overriding the preset",
    )
    parser.add_argument(
        "--machine", choices=sorted(_MACHINES), default=None,
        help="base machine overriding the preset's (quera or atom)",
    )
    parser.add_argument(
        "--spec-axis", action="append", metavar="FIELD=V1,V2",
        help="sweep a HardwareSpec field (repeatable; overrides preset axes)",
    )
    parser.add_argument(
        "--noise-axis", action="append", metavar="FIELD=V1,V2",
        help="sweep a NoiseModelConfig field (repeatable; overrides preset axes)",
    )
    parser.add_argument(
        "--config-axis", action="append", metavar="FIELD=V1,V2",
        help="sweep a technique-config knob (repeatable): placement_method, "
        "placement_seed, scheduler_seed, return_home, router_strategy, "
        "router_window -- turns ablations into ordinary sweep axes",
    )
    parser.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="register every .qasm file under DIR as a sweep benchmark "
        "(stable content-derived workload ids; unparseable files are "
        "skipped with a warning).  Without --benchmarks the grid runs "
        "over the whole corpus",
    )
    parser.add_argument(
        "--shots", type=int, default=1000, metavar="N",
        help="Monte Carlo shots per scenario (default: 1000)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="root seed the per-scenario content-derived seeds mix in "
        "(default: 0)",
    )
    parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="only run the first N scenarios of the grid (cannot change "
        "any scenario's seed or record)",
    )


def _grid_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> SweepGrid:
    """Build the grid the shared flags describe (parser.error on bad axes)."""
    preset = SweepGrid.smoke if args.preset == "smoke" else SweepGrid.default
    grid = preset(shots=args.shots, base_seed=args.seed)
    overrides: dict = {}
    if args.corpus:
        from repro.qasm.corpus import activate_corpus

        try:
            corpus = activate_corpus(args.corpus)
        except ValueError as exc:
            parser.error(str(exc))
        # Stable skip + summary lines (docs/store-format.md): one
        # 'corpus: skipped <file>: <reason>' line per rejected file, then
        # the CORPUS census line, printed for run and worker alike.
        for name, reason in corpus.skipped:
            print(f"corpus: skipped {name}: {reason}")
        print(corpus.summary_line)
        if not args.benchmarks:
            if not corpus.workloads:
                parser.error(
                    f"corpus {args.corpus!r} contains no parseable workloads"
                )
            overrides["benchmarks"] = corpus.workload_ids
    if args.benchmarks:
        overrides["benchmarks"] = tuple(
            b.strip().upper() for b in args.benchmarks.split(",")
        )
    if args.techniques:
        overrides["techniques"] = tuple(
            t.strip() for t in args.techniques.split(",")
        )
    if args.machine:
        overrides["base_spec"] = _MACHINES[args.machine]()
    try:
        if args.spec_axis:
            overrides["spec_axes"] = _parse_axes(args.spec_axis)
        if args.noise_axis:
            overrides["noise_axes"] = _parse_axes(args.noise_axis)
        if args.config_axis:
            overrides["config_axes"] = _parse_axes(args.config_axis)
        if overrides:
            from dataclasses import replace

            grid = replace(grid, **overrides)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        parser.error(str(exc))
    if args.limit is not None and args.limit <= 0:
        parser.error("--limit must be positive")
    return grid


def _compact_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweeps compact",
        description="Seal a sweep store's loose JSON records into packed, "
        "checksummed segment files (resume-compatible, ~10x+ faster to "
        "load; idempotent, safe to re-run).  Prints one stable "
        "'COMPACT sealed=N deduped=D skipped=S segment=...' line for "
        "scripts to grep (see docs/store-format.md).",
    )
    parser.add_argument("store", help="sweep store directory to compact")
    args = parser.parse_args(argv)

    store = SweepStore(args.store)
    try:
        report = store.compact()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Generation/delta census comes from a fresh stats read, appended
    # after the four original fields (append-only line contract).
    stats = store.stats()
    print(
        f"COMPACT sealed={report.sealed} deduped={report.deduped} "
        f"skipped={report.skipped} segment={report.segment or '-'} "
        f"generation={stats.generation} deltas={stats.deltas}"
    )
    print(f"store: {store.directory} ({stats.describe()})")
    return 0


def _merge_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweeps merge",
        description="Fold a sweep store down to one fresh generation: seal "
        "loose records, rewrite small segments into large "
        "generation-tagged ones, checkpoint the manifest delta log into "
        "fresh shards, and garbage-collect superseded files.  Idempotent "
        "and kill-safe.  Prints one stable 'MERGE sealed=N merged=M "
        "segments=S generation=G gc_segments=X gc_manifest=Y' line for "
        "scripts to grep (see docs/store-format.md).",
    )
    parser.add_argument("store", help="sweep store directory to merge")
    parser.add_argument(
        "--target-records", type=int, default=None, metavar="N",
        help="records per merged segment (default: "
        f"{SweepStore.DEFAULT_MERGE_TARGET})",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="rewrite merged segments over an N-process pool (the output "
        "is byte-identical to a serial merge; default: serial)",
    )
    args = parser.parse_args(argv)
    if args.target_records is not None and args.target_records <= 0:
        parser.error("--target-records must be positive")
    if args.jobs is not None and args.jobs <= 0:
        parser.error("--jobs must be positive")

    store = SweepStore(args.store)
    try:
        report = store.merge(target_records=args.target_records, jobs=args.jobs)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.summary_line)
    print(f"store: {store.directory} ({store.stats().describe()})")
    return 0


def _stats_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweeps stats",
        description="Print a sweep store's census without running "
        "anything: loose/sealed record counts, segment and generation "
        "census, manifest shard/delta counts, and active leases.  One "
        "stable 'STATS loose=N sealed=N segments=N generation=G shards=S "
        "deltas=D leases=L' line for scripts to grep (see "
        "docs/store-format.md), then a human-readable summary.",
    )
    parser.add_argument("store", help="sweep store directory to inspect")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the census as one JSON object (same fields as the "
        "STATS line) instead of prose, for fleet tooling",
    )
    args = parser.parse_args(argv)

    stats = SweepStore(args.store).stats()
    if args.json:
        import json

        print(json.dumps(stats.as_dict(), sort_keys=True))
        return 0
    print(stats.summary_line)
    print(f"store: {args.store} ({stats.describe()})")
    return 0


def _serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweeps serve",
        description="Serve a sweep store's aggregations over HTTP/JSON "
        "from a long-lived daemon: /stats, /columns, /records/<key>, "
        "/marginal, /pivot, /crossovers, and chunk-streamed /csv.  Hot "
        "ResultTable aggregations are cached per manifest generation; "
        "the generation token is the HTTP ETag, so unchanged stores "
        "answer If-None-Match with 304 and a concurrent merge/compact/"
        "sweep underneath the daemon invalidates everything at its "
        "atomic manifest swap.  Prints one stable 'SERVE ready port=... "
        "store=... generation=... records=... etag=...' line once the "
        "socket is bound (see docs/store-format.md), then blocks until "
        "interrupted.",
    )
    parser.add_argument("store", help="sweep store directory to serve")
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="address to bind (default: 127.0.0.1; use 0.0.0.0 to serve "
        "a fleet)",
    )
    parser.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="port to bind (default: 0 = an ephemeral port, reported in "
        "the SERVE ready line)",
    )
    parser.add_argument(
        "--csv-chunk-rows", type=int, default=None, metavar="N",
        help="rows per streamed /csv chunk (default: 2048)",
    )
    args = parser.parse_args(argv)
    if args.port < 0 or args.port > 65535:
        parser.error("--port must be in [0, 65535]")
    if args.csv_chunk_rows is not None and args.csv_chunk_rows <= 0:
        parser.error("--csv-chunk-rows must be positive")

    from repro.sweeps.serve import DEFAULT_CSV_CHUNK_ROWS, serve_store

    try:
        return serve_store(
            args.store,
            host=args.host,
            port=args.port,
            csv_chunk_rows=args.csv_chunk_rows or DEFAULT_CSV_CHUNK_ROWS,
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _analyze_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweeps analyze",
        description="Aggregate a sweep store: marginals per benchmark/"
        "technique, axis detection, and technique-crossover report.",
    )
    parser.add_argument("store", help="sweep store directory to analyze")
    parser.add_argument(
        "--metric", default="analytic_success", metavar="COLUMN",
        help="metric column to aggregate (default: analytic_success; "
        "e.g. success_rate, runtime_us, num_cz)",
    )
    parser.add_argument(
        "--axis", default=None, metavar="FIELD",
        help="restrict crossover detection to one numeric axis "
        "(default: every detected numeric axis)",
    )
    parser.add_argument(
        "--csv", default=None, metavar="PATH",
        help="also dump the full flat ResultTable as CSV to PATH",
    )
    args = parser.parse_args(argv)

    store = SweepStore(args.store)
    table = ResultTable.from_store(store)
    if not len(table):
        print(f"error: no readable records in {store.directory}", file=sys.stderr)
        return 1
    valid_metrics = [m for m in METRIC_COLUMNS if m in table.names]
    if args.metric not in valid_metrics:
        print(
            f"error: unknown metric {args.metric!r}; one of: "
            f"{', '.join(valid_metrics)}",
            file=sys.stderr,
        )
        return 1
    if args.axis is not None and args.axis not in table.numeric_axes():
        print(
            f"error: {args.axis!r} is not a numeric sweep axis of this store "
            f"(numeric axes: {', '.join(table.numeric_axes()) or 'none'})",
            file=sys.stderr,
        )
        return 1
    print(render_store_summary(table, metric=args.metric, axis=args.axis))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(table.to_csv())
        print(f"wrote {len(table)} rows to {args.csv}")
    return 0


def _worker_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweeps worker",
        description="Run one coordinator-free work-stealing sweep worker: "
        "claim pending scenario keys of the given grid through atomic "
        "lease files in STORE, evaluate them, and exit when the grid is "
        "complete.  Start any number of workers with the same grid flags "
        "-- on one host or many hosts sharing STORE's filesystem -- and "
        "the final store is byte-identical to a single-process run, even "
        "across worker crashes (expired leases are reclaimed after "
        "--ttl).  Prints the same stable RESUME summary line as a plain "
        "run, with owner=/reclaimed=/contended= fields appended.",
    )
    parser.add_argument(
        "store", help="shared sweep store directory (created if missing)"
    )
    _add_grid_arguments(parser)
    parser.add_argument(
        "--owner", default=None, metavar="ID",
        help="lease-owner id; must be unique per worker "
        "(default: a host-pid-random id)",
    )
    parser.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="lease heartbeat TTL; leases older than this are presumed "
        "abandoned (crashed worker) and reclaimed.  Size it above the "
        "slowest single compile (default: 60)",
    )
    parser.add_argument(
        "--seal", action="store_true",
        help="compact this worker's finished records into packed segments "
        "in batches (see the compact subcommand)",
    )
    parser.add_argument(
        "--merge-every", type=int, default=None, metavar="N",
        help="with --seal, fold segments once the store's pending manifest "
        "delta count reaches N (the exclusive merge lock elects at most "
        "one merging worker at a time; see the merge subcommand)",
    )
    parser.add_argument(
        "--lease-range", type=int, default=1, metavar="N",
        help="claim contiguous blocks of N key-sorted scenarios per lease "
        "file instead of one key per lease (amortizes lease metadata "
        "traffic over the block; every worker of a fleet must use the "
        "same value; default: 1)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress progress lines (the stable RESUME summary line "
        "still prints)",
    )
    args = parser.parse_args(argv)
    if args.ttl is not None and args.ttl <= 0:
        parser.error("--ttl must be positive")
    if args.merge_every is not None:
        if args.merge_every <= 0:
            parser.error("--merge-every must be positive")
        if not args.seal:
            parser.error("--merge-every requires --seal")
    if args.lease_range <= 0:
        parser.error("--lease-range must be positive")
    grid = _grid_from_args(parser, args)

    from repro.sweeps.distributed import run_worker
    from repro.sweeps.store import DEFAULT_LEASE_TTL_S

    store = SweepStore(args.store)
    report = run_worker(
        grid,
        store,
        owner=args.owner,
        ttl_s=args.ttl if args.ttl is not None else DEFAULT_LEASE_TTL_S,
        seal=args.seal,
        merge_every=args.merge_every,
        limit=args.limit,
        lease_range=args.lease_range,
        log=None if args.quiet else print,
    )
    # Machine-readable contract line, printed even under --quiet (same
    # fields as a plain run, worker fields appended; docs/store-format.md).
    print(report.summary_line)
    print(f"store: {store.directory} ({store.stats().describe()})")
    return 0


def _run_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweeps",
        description="Sweep (circuit x technique x hardware x noise) scenarios "
        "through the batch compiler and the sharded noisy-shot engine "
        "(or: `worker STORE` to join a distributed fleet, `compact STORE` "
        "to pack a store, `analyze STORE` to aggregate one).",
    )
    _add_grid_arguments(parser)
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="compilation process-pool size (default: 1); results are "
        "bit-identical for any value",
    )
    parser.add_argument(
        "--eval-jobs", type=int, default=1, metavar="N",
        help="evaluation process-pool size (default: 1); scenario chunks "
        "are sharded across workers that write straight to the store; "
        "records are bit-identical for any value",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="instead of the sharded pools, spawn N distributed "
        "work-stealing workers over --store (lease files, crash-safe; "
        "see the worker subcommand); records are byte-identical to any "
        "other mode",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="persist per-scenario records to DIR as they are evaluated "
        "(loose JSON; pack with the compact subcommand or --seal)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip scenarios already present in --store (byte-for-byte: "
        "corrupt or foreign-generation records are recomputed)",
    )
    parser.add_argument(
        "--seal", action="store_true",
        help="with --store, compact each evaluation chunk's records into "
        "packed segments as it completes (see the compact subcommand)",
    )
    parser.add_argument(
        "--merge", action="store_true",
        help="with --store, run a generational merge after the sweep "
        "finishes (see the merge subcommand): large segments, "
        "checkpointed manifest, superseded files collected",
    )
    parser.add_argument(
        "--merge-every", type=int, default=None, metavar="N",
        help="with --seal, fold segments mid-sweep whenever the pending "
        "manifest delta count reaches N, so long fleets never accumulate "
        "unbounded deltas (see the merge subcommand)",
    )
    parser.add_argument(
        "--lease-range", type=int, default=1, metavar="N",
        help="with --workers, claim contiguous blocks of N key-sorted "
        "scenarios per lease file (see the worker subcommand; default: 1)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress progress lines and the summary table (the stable "
        "RESUME summary line still prints)",
    )
    parser.add_argument(
        "--phase-report", action="store_true",
        help="also print aggregated per-stage compile timings "
        "(PhaseTimer totals, merged across compile workers; cache hits "
        "contribute no stages)",
    )
    parser.add_argument(
        "--phase-report-json", default=None, metavar="PATH",
        help="dump the aggregated per-stage compile timings as JSON to "
        'PATH ({"totals": {"<technique>.<stage>": seconds, ...}})',
    )
    args = parser.parse_args(argv)

    if args.resume and not args.store:
        parser.error("--resume requires --store")
    if args.seal and not args.store:
        parser.error("--seal requires --store")
    if args.merge and not args.store:
        parser.error("--merge requires --store")
    if args.merge_every is not None:
        if args.merge_every <= 0:
            parser.error("--merge-every must be positive")
        if not args.seal:
            parser.error("--merge-every requires --seal")
    if args.workers is not None and not args.store:
        parser.error("--workers requires --store")
    if args.workers is not None and args.workers <= 0:
        parser.error("--workers must be positive")
    if args.lease_range <= 0:
        parser.error("--lease-range must be positive")
    grid = _grid_from_args(parser, args)

    from repro.sweeps.runner import run_sweep

    store = SweepStore(args.store) if args.store else None
    log = None if args.quiet else print
    report = run_sweep(
        grid, store, resume=args.resume, workers=args.workers or args.jobs,
        eval_workers=args.eval_jobs, limit=args.limit, seal=args.seal,
        merge=args.merge, merge_every=args.merge_every,
        distributed=args.workers is not None,
        lease_range=args.lease_range, log=log,
    )

    if not args.quiet:
        summary = technique_summary(ResultTable.from_records(report.records))
        print(
            summary.render(
                title=f"{report.scenarios} scenarios, {args.shots} shots each -- "
                f"{report.computed} computed, {report.resumed} resumed, "
                f"{report.compilations} compilations, {report.elapsed_s:.1f}s",
            )
        )
    if args.phase_report:
        from repro.utils.profiling import format_phase_totals

        print("per-stage compile timings (cache hits contribute no stages):")
        print(format_phase_totals(report.phase_totals))
    if args.phase_report_json:
        import json

        with open(args.phase_report_json, "w", encoding="utf-8") as handle:
            json.dump({"totals": report.phase_totals}, handle, indent=2)
        print(f"wrote phase timings to {args.phase_report_json}")
    # One stable machine-readable line, printed even under --quiet: CI and
    # wrapper scripts key off it instead of the human-readable wording.
    print(report.summary_line)
    if store is not None:
        print(f"store: {store.directory} ({store.stats().describe()})")
        print(f"analyze with: python -m repro.sweeps analyze {store.directory}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "analyze":
        return _analyze_main(argv[1:])
    if argv and argv[0] == "compact":
        return _compact_main(argv[1:])
    if argv and argv[0] == "worker":
        return _worker_main(argv[1:])
    if argv and argv[0] == "merge":
        return _merge_main(argv[1:])
    if argv and argv[0] == "stats":
        return _stats_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    return _run_main(argv)


if __name__ == "__main__":
    sys.exit(main())
