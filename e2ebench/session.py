"""One measured session of a workload: ingest, compile, sweep, analyze, serve.

:class:`Daemon` is one set-up (``daemon.py`` spawned and timed up to its
``SERVE ready`` line).  :class:`Session` drives the program through its
public API, in process (``workers=1``, ``eval_workers=1``) and on cold
caches, against that daemon:

A. ingest   -- scan the session's QASM corpus, resolve and transpile every
               circuit (``prepared_circuit``);
B. compile  -- compile every (circuit, technique) point cold, one
               ``compile_points`` call per point, timed per point and
               repeated ``compile_reps`` times here and as often again
               after every ``compile_every``-th read round;
C. sweep    -- ``run_sweep`` of the base grid with seal and merge (skipped
               when the workload built its store at set-up; such a
               workload instead repeats the base grid's cold pass into a
               scratch store, here and after every read round);
D. analyze  -- load + marginal + pivot + crossovers + CSV on a copy of the
               merged base store, repeated here and after every read round;
E. serve    -- read rounds over one keep-alive connection, each followed by
               a writer step that sweeps (and seals) one new ``cz_error``
               slice into the store underneath the daemon; then, where
               ingest is long, A once more; then one merge.

With ``trace=True`` the same calls are made layer by layer instead:
compilation runs the ``StagedCompiler.stage_*`` methods from here, each
``run_sweep`` is replaced by the public functions it calls, in its order,
and the serve phase adds in-process timings of the daemon's building
blocks.  The spans live in :attr:`Session.layers` until the run reports
them.
"""

from __future__ import annotations

import gc
import http.client
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from workloads import ROUTES, TECHNIQUES, grid, read_schedule

HERE = Path(__file__).resolve().parent
STAGES = ("layout", "placement", "schedule", "finalize")
#: Routes whose rendered body the daemon caches per generation: the first
#: such read of a generation pays for the view and the payload (a *fresh*
#: query), later ones are served from the cache.
CACHED_ROUTES = ("marginal", "marginal2", "pivot", "crossovers", "stats")

perf = time.perf_counter


class Daemon:
    """One set-up: the daemon process, spawned and timed until ready."""

    def __init__(self, workload, directory: Path, small: bool) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.store_dir = directory / "store"
        self.corpus_dir = directory / "corpus"
        self._stderr = open(directory / "daemon.err", "w", encoding="utf-8")
        command = [
            sys.executable, str(HERE / "daemon.py"), "--workload", workload.name,
            "--seed", str(workload.seed), "--dir", str(directory),
        ] + (["--small"] if small else [])
        start = perf()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, text=True
        )
        watchdog = threading.Timer(150.0, self.proc.kill)
        watchdog.start()
        try:
            line = ""
            while not line.startswith("SERVE ready"):
                line = self.proc.stdout.readline()
                if not line:
                    self.stop()
                    raise RuntimeError(
                        f"daemon for {workload.name} exited before ready; "
                        f"see {directory / 'daemon.err'}"
                    )
        finally:
            watchdog.cancel()
        self.setup_s = perf() - start
        fields = dict(part.split("=", 1) for part in line.split()[2:])
        self.port = int(fields["port"])
        self.etag = fields["etag"]

    def peak_rss_mb(self) -> float:
        """The daemon's resident-set high-water mark (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


class Reader:
    """The closed-loop client: one keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def get(self, path: str, etag: str | None):
        headers = {"If-None-Match": etag} if etag else {}
        start = perf()
        try:
            self.conn.request("GET", path, headers=headers)
            response = self.conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            return None, None, repr(exc).encode(), perf() - start
        return response.status, response.getheader("ETag"), body, perf() - start

    def close(self) -> None:
        self.conn.close()


def warm_imports() -> None:
    """Import every module a session calls into, so that no timed phase
    pays for a first import (the registry loads techniques lazily)."""
    import repro.benchcircuits.io  # noqa: F401
    import repro.qasm.corpus  # noqa: F401
    import repro.sweeps.engine  # noqa: F401
    import repro.sweeps.runner  # noqa: F401
    import repro.sweeps.serve  # noqa: F401
    from repro.pipeline.registry import get_compiler

    for technique in TECHNIQUES:
        get_compiler(technique)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def dir_bytes(directory: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


class Session:
    """One session of ``workload`` against ``daemon`` (see module doc)."""

    def __init__(self, workload, daemon: Daemon, trace: bool) -> None:
        self.wl = workload
        self.daemon = daemon
        self.trace = trace
        self.layers: dict = defaultdict(float)
        self.layer_samples: dict = defaultdict(list)
        self.counts: dict = defaultdict(int)
        self.compile_times: dict = defaultdict(list)
        self.results: dict = {}
        self.records: list = []
        self.gen_counts: list = []
        self.observations: list = []
        self.analyze_s: list = []
        self.sweep_calls: list = []
        self.pass_s: list = []
        self.pass_csv_ok: list = []
        self.ingest_s: list = []
        self.sweep_attributed: list = []
        self.scenarios = 0
        self.store_ops = 0
        self.rounds = 0
        self.csv = ""

    # -- phases ----------------------------------------------------------------

    def run(self, seconds: float, rounds: int | None = None) -> None:
        """Run the session; ``rounds`` fixes the number of read rounds
        (the traced replay of an untraced session), else rounds continue
        until ``seconds`` have passed and at least ``min_rounds`` ran."""
        from repro.sweeps import SweepStore

        if self.wl.build_at_setup:
            # The records the daemon already serves: the checks' generation 0.
            self.records = sorted(
                SweepStore(self.daemon.store_dir).records(), key=lambda r: r["key"]
            )
        gc.collect()
        start = perf()
        self.ingest()
        for _ in range(self.wl.compile_reps):
            self.compile()
        if not self.wl.build_at_setup:
            gc.collect()
            self.sweep(grid(self.wl, self.ids), merge=True)
        self.store_bytes = dir_bytes(self.daemon.store_dir)
        self.store_bytes_records = len(self.records)
        # Writer steps move the daemon's store; analyze samples are taken on
        # this copy of the merged base store, so all of them see one input.
        self.snapshot = self.daemon.directory / "snapshot"
        shutil.copytree(self.daemon.store_dir, self.snapshot)
        self.analyze(self.wl.analyze_reps)
        if self.wl.cold_passes:
            self.base_csv = self._final_csv(self.snapshot)
            self.cold_passes()
        self.serve(start, seconds, rounds)
        if self.wl.closing_ingest:
            # An ingest too long to repeat every round is repeated once
            # here, so its samples come from two times some 40 s apart.
            gc.collect()
            self.ingest()
        self.fold()
        self.session_s = perf() - start
        self.csv = self._final_csv()

    def ingest(self) -> None:
        from repro.benchcircuits import get_benchmark
        from repro.benchcircuits.io import suite_workload_ids
        from repro.experiments.common import prepared_circuit
        from repro.qasm.corpus import activate_corpus, clear_corpus_registry

        clear_corpus_registry()
        self._clear_caches()
        corpus = str(self.daemon.corpus_dir)
        self.ids = suite_workload_ids(corpus)
        start = t = perf()
        activate_corpus(corpus)
        if self.trace:
            # Resolving parses each file again; prepared_circuit then only
            # transpiles.
            for b in self.wl.benchmarks:
                get_benchmark(self.ids[b])
            self.layers["qasm.parse"] += perf() - t
            t = perf()
        self.circuits = {b: prepared_circuit(self.ids[b]) for b in self.wl.benchmarks}
        if self.trace:
            self.layers["transpile"] += perf() - t
        self.ingest_s.append(perf() - start)

    def _clear_caches(self) -> None:
        """``clear_caches()``, banking the result cache's hit count first
        (clearing resets it)."""
        from repro.experiments.common import clear_caches, result_cache

        self.counts["cache_hits"] += result_cache().stats.hits
        clear_caches()

    def points(self):
        from repro.hardware.spec import HardwareSpec

        spec = HardwareSpec.quera_aquila()
        return [(b, self.ids[b], tech, spec) for b in self.wl.benchmarks for tech in TECHNIQUES]

    def compile(self) -> None:
        """One cold pass over every point; each point's time is appended to
        :attr:`compile_times` (the results of the pass feed the sweeps)."""
        from repro.experiments.common import ExperimentSettings, compile_points
        from repro.experiments.common import result_cache, settings_config_factory
        from repro.pipeline.registry import get_compiler
        from repro.pipeline.stage import CompileContext

        factory = settings_config_factory(ExperimentSettings())
        cache = result_cache()
        cache.clear()
        for bench, name, technique, spec in self.points():
            if not self.trace:
                t = perf()
                (result,) = compile_points([(name, technique, spec)])
                self.compile_times[(bench, technique)].append(perf() - t)
            else:
                circuit = self.circuits[bench]
                config = factory(technique, circuit, spec)
                result = cache.lookup(technique, circuit, spec, config)
                if result is None:
                    compiler = get_compiler(technique)(spec, config)
                    ctx = CompileContext(circuit=circuit, spec=spec, config=config)
                    compiler.stage_transpile(ctx)
                    for stage in STAGES:
                        t = perf()
                        getattr(compiler, f"stage_{stage}")(ctx)
                        self.layers[f"compile.{technique}.{stage}"] += perf() - t
                    result = ctx.result
                    cache.store(technique, circuit, spec, config, result)
            self.results[(bench, technique)] = result
        self.counts["compile_passes"] += 1
        self.counts["compiles"] += len(self.results)

    @property
    def compile_ms(self) -> list:
        """Each point's median cold compile time, in ms."""
        return [statistics.median(v) * 1e3 for v in self.compile_times.values()]

    def sweep(self, sweep_grid, merge: bool) -> None:
        """Sweep ``sweep_grid`` into the daemon's store."""
        from repro.sweeps import SweepStore

        store = SweepStore(self.daemon.store_dir)
        self.records.extend(self._sweep_into(store, sweep_grid, merge, held=len(self.records)))

    def cold_passes(self) -> None:
        """The base grid's cold pass, ``cold_passes`` times, each into a
        scratch store: fresh corpus registry and caches, ``activate_corpus``,
        then ``run_sweep`` with seal and merge, timed together.  Each scratch
        store must analyze to the same CSV as the base store."""
        from repro.qasm.corpus import activate_corpus, clear_corpus_registry
        from repro.sweeps import SweepStore

        scratch = self.daemon.directory / "pass"
        for _ in range(self.wl.cold_passes):
            clear_corpus_registry()
            self._clear_caches()
            gc.collect()
            t = perf()
            activate_corpus(str(self.daemon.corpus_dir))
            self._sweep_into(SweepStore(scratch), grid(self.wl, self.ids), merge=True, held=0)
            self.pass_s.append(perf() - t)
            self.pass_csv_ok.append(self._final_csv(scratch) == self.base_csv)
            shutil.rmtree(scratch)

    def _sweep_into(self, store, sweep_grid, merge: bool, held: int) -> list:
        """``run_sweep(grid, store, seal=True, merge=merge)`` (traced when
        the session is); ``held`` is the number of records already in
        ``store``."""
        from repro.sweeps.runner import run_sweep

        t = perf()
        if self.trace:
            records = self._traced_sweep(sweep_grid, store, merge, held)
        else:
            records = run_sweep(sweep_grid, store, seal=True, merge=merge).records
        self.sweep_calls.append(perf() - t)
        self.scenarios += len(records)
        self.store_ops += len(records) + 1 + int(merge)
        return records

    def _traced_sweep(self, sweep_grid, store, merge: bool, held: int) -> list:
        """``run_sweep(grid, store, seal=True, merge=merge)``, one public
        call at a time, in its order."""
        from repro.experiments.common import compile_points
        from repro.sweeps.engine import evaluate_tasks
        from repro.sweeps.runner import plan_sweep

        span = self.layers
        t = perf()
        sweep_grid.scenarios()
        span["grid.expand"] += perf() - t
        start = t = perf()
        plan = plan_sweep(sweep_grid)
        span["plan"] += perf() - t
        t = perf()
        order = list(dict.fromkeys(plan.compile_ids))
        compiled = dict(zip(order, compile_points(
            [plan.point_specs[cid] for cid in order], settings=plan.settings
        )))
        span["sweep.compile"] += perf() - t
        t = perf()
        tasks = [plan.task(i, compiled[cid]) for i, cid in enumerate(plan.compile_ids)]
        span["sweep.tasks"] += perf() - t
        t = perf()
        records = evaluate_tasks(tasks)
        span["evaluate"] += perf() - t
        t = perf()
        for task, record in zip(tasks, records):
            store.put(task.key, record)
        span["store.put"] += perf() - t
        t = perf()
        store.compact(keys=[task.key for task in tasks])
        span["store.compact"] += perf() - t
        if merge:
            t = perf()
            store.merge()
            span["store.merge"] += perf() - t
            self.counts["merged_records"] += held + len(records)
        self.sweep_attributed.append(perf() - start)
        self.counts["planned"] += len(plan)
        return records

    def analyze(self, reps: int) -> None:
        """``reps`` timed analyses of the base store's copy."""
        from repro.sweeps import ResultTable, SweepStore

        crossover_axis = "cz_error"
        gc.collect()
        for _ in range(reps):
            t0 = perf()
            table = ResultTable.from_store(SweepStore(self.snapshot))
            t1 = perf()
            table.marginal(value="analytic_success", over=crossover_axis)
            t2 = perf()
            table.pivot(index="benchmark", column="technique", value="analytic_success")
            t3 = perf()
            table.crossovers(axis=crossover_axis)
            t4 = perf()
            table.to_csv()
            t5 = perf()
            self.analyze_s.append(t5 - t0)
            for name, span in (
                ("load", t1 - t0), ("marginal", t2 - t1), ("pivot", t3 - t2),
                ("crossovers", t4 - t3), ("csv", t5 - t4),
            ):
                self.layer_samples[f"analysis.{name}"].append(span)

    def serve(self, start: float, seconds: float, rounds: int | None) -> None:
        reader = Reader(self.daemon.port)
        # The ready line's ETag is stale once the session's own sweep has
        # landed; a store built at set-up has not moved since.
        etag = None if self.wl.build_at_setup else self.daemon.etag
        cz_points = len(self.wl.cz_values)
        self.read_s = 0.0
        try:
            while True:
                if rounds is not None:
                    if self.rounds >= rounds:
                        break
                elif self.rounds >= self.wl.min_rounds and perf() - start >= seconds:
                    break
                generation = len(self.gen_counts)
                self.gen_counts.append(len(self.records))
                keys = random.Random(f"{self.wl.seed}:keys:{self.rounds}")
                first_seen: set = set()
                gc.collect()
                t_round = perf()
                for index, (route, revalidate) in enumerate(
                    read_schedule(self.wl, self.rounds, crossovers_ok=cz_points >= 2)
                ):
                    if route == "record":
                        path = "/records/" + self.records[keys.randrange(len(self.records))]["key"]
                    else:
                        path = ROUTES[route]
                    sent = etag if revalidate else None
                    status, got, body, latency = reader.get(path, sent)
                    if status == 200 and got:
                        etag = got
                    fresh = route in CACHED_ROUTES and path not in first_seen
                    first_seen.add(path)
                    self.observations.append(
                        (generation, index, route, path, sent, status, got, body, latency, fresh)
                    )
                self.read_s += perf() - t_round
                if self.trace:
                    self._trace_daemon_blocks()
                step = grid(self.wl, self.ids, cz_values=self.wl.writer_cz(self.rounds))
                self.sweep(step, merge=False)
                # More analyze samples, cold passes and cold compile passes
                # between rounds spread the samples over the whole session,
                # so a burst of host load skews few of them.
                self.analyze(self.wl.analyze_reps)
                if self.wl.cold_passes:
                    self.cold_passes()
                if self.wl.compile_every and (self.rounds + 1) % self.wl.compile_every == 0:
                    for _ in range(self.wl.compile_reps):
                        self.compile()
                cz_points += self.wl.writer_points
                self.rounds += 1
        finally:
            reader.close()
        self.gen_counts.append(len(self.records))

    def fold(self) -> None:
        """End the session the way a writer ends its run: merge the
        segments its steps sealed into one generation."""
        from repro.sweeps import SweepStore

        t = perf()
        SweepStore(self.daemon.store_dir).merge()
        self.layers["store.merge"] += perf() - t
        self.counts["merged_records"] += len(self.records)
        self.store_ops += 1

    def _trace_daemon_blocks(self) -> None:
        """In-process timings of what the daemon does per request and per
        generation, on the store as the reads just saw it."""
        from repro.sweeps import ResultTable, SweepStore
        from repro.sweeps.analysis import marginal_payload, pivot_payload
        from repro.sweeps.serve import store_token

        reps = 20
        t = perf()
        for _ in range(reps):
            store_token(self.daemon.store_dir)
        self.layer_samples["serve.store_token"].append((perf() - t) / reps)
        t = perf()
        store = SweepStore(self.daemon.store_dir)
        table = ResultTable.from_store(store)
        store.stats()
        self.layer_samples["serve.view_build"].append(perf() - t)
        t = perf()
        marginal_payload(table, value="analytic_success", over="cz_error")
        pivot_payload(table, index="benchmark", column="technique", value="analytic_success")
        self.layer_samples["serve.payload"].append(perf() - t)

    def _final_csv(self, directory: Path | None = None) -> str:
        """The analyze CSV of the store in ``directory`` (the daemon's)."""
        from repro.sweeps import ResultTable, SweepStore

        return ResultTable.from_store(SweepStore(directory or self.daemon.store_dir)).to_csv()

    # -- reporting -------------------------------------------------------------

    def latencies(self, fresh: bool) -> list:
        """Read latencies of fresh queries (``fresh``) or of all others."""
        return [obs[8] for obs in self.observations if obs[9] == fresh]

    def http_failures(self) -> int:
        return sum(1 for obs in self.observations if obs[5] not in (200, 304))

    def attempted(self) -> int:
        return self.counts["compiles"] + self.scenarios + self.store_ops + len(self.observations)

    def end_to_end(self, peak_rss_mb: float) -> dict:
        """The end-to-end metrics.  ``analyze_ms`` is the fastest of its
        samples (see the README: the host's speed moves in phases, and an
        analysis is short enough to fall inside a fast one); the longer
        timings are medians."""
        from checks import quality

        lat = self.latencies(fresh=False)
        fresh = self.latencies(fresh=True)
        cz_ratio, success_ratio, runtime = quality(self.results, self.wl.benchmarks)
        if self.pass_s:
            scenarios_per_s = self.wl.base_size / statistics.median(self.pass_s)
        else:
            # The base grid's cold pass: ingest, each point's median compile,
            # and the base sweep with seal and merge.
            cold_pass = (statistics.median(self.ingest_s) + sum(self.compile_ms) / 1e3
                         + self.sweep_calls[0])
            scenarios_per_s = self.wl.base_size / cold_pass
        return {
            "scenarios_per_s": (scenarios_per_s, "1/s"),
            "compile_ms_geomean": (geomean(self.compile_ms), "ms"),
            "analyze_ms": (min(self.analyze_s) * 1e3, "ms"),
            "store_bytes_per_scenario": (self.store_bytes / self.store_bytes_records, "B"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "query_p95_ms": (percentile(lat, 0.95) * 1e3, "ms"),
            "queries_per_s": (len(self.observations) / self.read_s, "1/s"),
            "fresh_query_p50_ms": (statistics.median(fresh) * 1e3, "ms"),
            "parallax_runtime_us_geomean": (runtime, "sched_us"),
            "cz_ratio_vs_graphine": (cz_ratio, "ratio"),
            "success_ratio_vs_graphine": (success_ratio, "ratio"),
        }

    def per_layer(self, untraced) -> dict:
        """Per-layer metrics of this traced session; ``untraced`` is the
        untraced session of the same run (for the unattributed time and the
        tracing overhead)."""
        from repro.experiments.common import result_cache
        from repro.sweeps import SweepStore

        span, counts = self.layers, self.counts
        med = {name: statistics.median(v) for name, v in self.layer_samples.items()}
        cached = [
            obs[8] for obs in self.observations
            if obs[5] == 200 and obs[2] in CACHED_ROUTES and not obs[9]
        ]
        # The k-th traced sweep replays the untraced session's k-th
        # run_sweep.  The host's phases move a session's total by more than
        # the gap, so the gap is the median per call times the calls.
        gaps = [u - a for u, a in zip(untraced.sweep_calls, self.sweep_attributed)]
        ingests = len(self.ingest_s)
        out = {
            "qasm.parse_ms": (span["qasm.parse"] / ingests * 1e3, "ms"),
            "transpile.ms": (span["transpile"] / ingests * 1e3, "ms"),
        }
        for technique in TECHNIQUES:
            for stage in STAGES:
                out[f"compile.{technique}.{stage}_ms"] = (
                    span[f"compile.{technique}.{stage}"] / counts["compile_passes"] * 1e3, "ms")
        out.update({
            "compile.points": (len(self.results), "count"),
            "compile.cache_hits": (counts["cache_hits"] + result_cache().stats.hits, "count"),
            "grid.expand_ms": (span["grid.expand"] * 1e3, "ms"),
            "plan.us_per_scenario": (span["plan"] / counts["planned"] * 1e6, "us"),
            "evaluate.us_per_scenario": (span["evaluate"] / self.scenarios * 1e6, "us"),
            "store.put_us_per_record": (span["store.put"] / self.scenarios * 1e6, "us"),
            "store.compact_us_per_record": (span["store.compact"] / self.scenarios * 1e6, "us"),
            "store.merge_us_per_record": (
                span["store.merge"] / counts["merged_records"] * 1e6, "us"),
            "store.segments": (SweepStore(self.daemon.store_dir).stats().segments, "count"),
            "sweep.unattributed_ms": (statistics.median(gaps) * len(gaps) * 1e3, "ms"),
        })
        for name in ("load", "marginal", "pivot", "crossovers", "csv"):
            out[f"analysis.{name}_ms"] = (med[f"analysis.{name}"] * 1e3, "ms")
        token_s = med["serve.store_token"]
        out.update({
            "serve.store_token_us": (token_s * 1e6, "us"),
            "serve.payload_ms": (med["serve.payload"] * 1e3, "ms"),
            "serve.transport_ms": ((statistics.median(cached) - token_s) * 1e3, "ms"),
            "serve.view_build_ms": (med["serve.view_build"] * 1e3, "ms"),
            "tracing.overhead_pct": ((self.session_s / untraced.session_s - 1) * 100, "%"),
        })
        return out
