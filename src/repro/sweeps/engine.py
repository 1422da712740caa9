"""Sharded scenario evaluation over a process pool.

The evaluation phase of a sweep -- Monte Carlo sampling every pending
scenario against its compiled artifact -- is embarrassingly parallel: each
scenario's record is a pure function of its :class:`EvalTask` (the compile
result, the effective spec/noise, and a content-derived seed fixed at grid
expansion).  :func:`evaluate_tasks` therefore partitions the pending tasks
into contiguous chunks and fans the chunks over a ``ProcessPoolExecutor``
(``workers`` > 1).  Records reach the store one of two ways:

- **loose** (the default) -- every worker persists each record through
  the store's atomic per-scenario writes as soon as it is computed;
- **sealed** (``seal=True``) -- workers hand their chunk's records back,
  and the driver packs them straight into a segment
  (:meth:`SweepStore.seal`) as each chunk completes; the in-process path
  seals once, at the end.  No loose file is written.

Guarantees:

- **bit-identical for any worker count** -- no task reads another task's
  output or any shared RNG state, so sharding cannot change a single byte
  of any record, and a sealed run's segments equal those of a loose run
  followed by ``compact``;
- **resumable** -- a sweep killed mid-run keeps every record it had made
  durable: every finished scenario when records go loose, every sealed
  chunk under ``seal=True``; a ``resume`` run only evaluates the missing
  ones;
- **degrades gracefully** -- when process pools are unavailable (sandboxed
  environments), evaluation falls back to the in-process path with
  identical results.

:func:`evaluate_task` -- one record as a pure function of one task -- is
also the evaluation core of the distributed claim-loop workers
(:mod:`repro.sweeps.distributed`): sharded pools and work-stealing
fleets (whether leasing one key or a whole key range at a time) differ
only in *who* runs each task, never in what it produces.
"""

from __future__ import annotations

import typing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass

from repro.sim.noisy import NoisyShotSimulator
from repro.sweeps.store import SCHEMA_VERSION, SweepStore

if typing.TYPE_CHECKING:
    from collections.abc import Callable, Mapping, Sequence
    from repro.core.result import CompilationResult
    from repro.sweeps.grid import Scenario

__all__ = [
    "EvalTask",
    "evaluate_task",
    "evaluate_tasks",
    "maybe_merge_store",
    "partition_tasks",
]


@dataclass(frozen=True)
class EvalTask:
    """One fully-specified, picklable unit of evaluation work.

    Attributes:
        key: the scenario's store address (see
            :func:`repro.sweeps.store.scenario_key`).
        scenario: the scenario to sample (spec/noise/shots/seed).
        result: the compiled artifact, already carrying the scenario's
            *effective* spec (noise-only axes swapped in by the runner).
        fingerprints: the circuit/spec/config fingerprints recorded in the
            scenario section of the output record.
    """

    key: str
    scenario: "Scenario"
    result: "CompilationResult"
    fingerprints: "Mapping[str, str]"


def make_record(
    task: EvalTask, sim: NoisyShotSimulator, outcome
) -> dict:
    """Assemble the on-disk record payload for one evaluated task.

    Mirrors the store schema exactly (``schema_version``,
    ``engine_version`` and ``key`` included), so a freshly computed record
    and its store round-trip compare equal.
    """
    from repro import __version__

    scenario = task.scenario
    scenario_section = {
        "benchmark": scenario.benchmark,
        "technique": scenario.technique,
        "shots": scenario.shots,
        "seed": scenario.seed,
        "spec_name": scenario.spec.name,
        "spec_overrides": dict(scenario.spec_overrides),
        "noise": asdict(scenario.noise),
        "fingerprints": dict(task.fingerprints),
    }
    # Only present for grids with config axes: records of config-less
    # grids stay byte-identical to what older engines wrote, so resume
    # and merge across engine updates never rewrite a store.
    if scenario.config_overrides:
        scenario_section["config_overrides"] = dict(scenario.config_overrides)
    return {
        "schema_version": SCHEMA_VERSION,
        "engine_version": __version__,
        "key": task.key,
        "scenario": scenario_section,
        "result": {
            "num_cz": task.result.num_cz,
            "num_u3": task.result.num_u3,
            "num_ccz": task.result.num_ccz,
            "num_swaps": task.result.num_swaps,
            "num_moves": task.result.num_moves,
            "trap_change_events": task.result.trap_change_events,
            "num_layers": task.result.num_layers,
            "runtime_us": task.result.runtime_us,
        },
        "outcome": {
            "shots": outcome.shots,
            "successes": outcome.successes,
            "gate_failures": outcome.gate_failures,
            "movement_failures": outcome.movement_failures,
            "decoherence_failures": outcome.decoherence_failures,
            "readout_failures": outcome.readout_failures,
            "success_rate": outcome.success_rate,
            "stderr": outcome.stderr(),
        },
        "analytic_success": sim.analytic_success(),
    }


def evaluate_task(task: EvalTask) -> dict:
    """Sample one scenario; a pure function of the task content."""
    sim = NoisyShotSimulator(
        task.result, task.scenario.noise, seed=task.scenario.seed
    )
    outcome = sim.run(task.scenario.shots)
    return make_record(task, sim, outcome)


def partition_tasks(
    tasks: "Sequence[EvalTask]", chunks: int
) -> list[list[EvalTask]]:
    """Split ``tasks`` into at most ``chunks`` contiguous, balanced runs.

    Deterministic: sizes differ by at most one, earlier chunks take the
    remainder, order within and across chunks is preserved.
    """
    if chunks <= 0:
        raise ValueError(f"chunks must be positive, got {chunks}")
    chunks = min(chunks, len(tasks))
    if chunks == 0:
        return []
    base, extra = divmod(len(tasks), chunks)
    out = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        out.append(list(tasks[start : start + size]))
        start += size
    return out


def _evaluate_chunk(
    chunk: "Sequence[EvalTask]", store_dir: str | None
) -> list[dict]:
    """Worker entry: evaluate a chunk, persisting record-by-record when
    given a store directory."""
    store = SweepStore(store_dir) if store_dir else None
    records = []
    for task in chunk:
        record = evaluate_task(task)
        if store is not None:
            store.put(task.key, record)
        records.append(record)
    return records


def _seal_records(
    store: SweepStore,
    chunk: "Sequence[EvalTask]",
    records: "Sequence[dict]",
    emit: "Callable[[str], None]",
) -> None:
    """Driver-side sealing: pack one finished chunk's records into a
    segment straight from memory.

    :meth:`SweepStore.seal` writes the records loose instead whenever it
    cannot seal them (a contended lock, a foreign root, a refused write),
    so sealing never loses a record.
    """
    report = store.seal(zip((task.key for task in chunk), records))
    if report.sealed:
        emit(
            f"sweep: sealed {report.sealed} records into {report.segment}"
        )


def maybe_merge_store(
    store: SweepStore | None,
    merge_every: int | None,
    emit: "Callable[[str], None]",
    label: str = "sweep",
) -> None:
    """Opportunistic merge once the pending delta count crosses a threshold.

    The shared helper behind ``--merge-every``: a cheap
    :meth:`SweepStore.pending_deltas` census decides whether to fold, and
    the store's exclusive merge lock elects at most one merger per fleet
    (contenders skip silently and retry at their next seal boundary).
    Failures never lose records -- deltas just stay pending.
    """
    if store is None or not merge_every:
        return
    try:
        report = store.maybe_merge(merge_every)
    except OSError as exc:
        emit(f"{label}: opportunistic merge failed ({exc}); deltas stay pending")
        return
    if report is not None:
        emit(f"{label}: {report.summary_line}")


def evaluate_tasks(
    tasks: "Sequence[EvalTask]",
    *,
    store: SweepStore | None = None,
    workers: int = 1,
    chunk_size: int | None = None,
    seal: bool = False,
    merge_every: int | None = None,
    log: "Callable[[str], None] | None" = None,
) -> list[dict]:
    """Evaluate every task, in task order, optionally sharded.

    Args:
        tasks: the pending evaluation units.
        store: optional store.  Without ``seal``, every record is
            persisted atomically the moment it is computed (by the worker
            that computed it), so an interrupted run keeps its progress at
            scenario granularity.
        workers: evaluation process-pool size; ``1`` runs in-process.
            Records are bit-identical for any value.
        chunk_size: tasks per dispatched chunk; defaults to spreading the
            work over ~4 chunks per worker (amortizes pickling while
            keeping the pool busy near the tail).
        seal: with a store, write no loose file: seal each chunk's
            records into a packed segment straight from memory as its
            future completes (the in-process path seals all of them once,
            at the end).  Progress is then durable at these seal
            boundaries, not per record: a run killed mid-chunk (or,
            in-process, before the end) recomputes that chunk on
            ``resume``.  Record *content* is unaffected -- only the
            on-disk backend changes.
        merge_every: with a store and ``seal``, fold segments via
            :meth:`SweepStore.maybe_merge` whenever the pending delta
            count reaches this threshold (checked at each seal boundary),
            so long sweeps never accumulate unbounded manifest deltas.
        log: optional progress sink.

    Returns:
        One record dict per task, in task order.
    """
    emit = log or (lambda message: None)
    if not tasks:
        return []
    if workers > 1 and len(tasks) > 1:
        if chunk_size is None:
            chunk_size = max(1, -(-len(tasks) // (workers * 4)))
        chunks = partition_tasks(tasks, -(-len(tasks) // chunk_size))
        # Sealing workers hand their records back unspilled; the driver
        # seals them.
        store_dir = (
            str(store.directory) if store is not None and not seal else None
        )
        # Only pool *unavailability* degrades to the in-process path:
        # OSError at executor creation (no /dev/shm, fork refused) or a
        # BrokenProcessPool while running (sandbox killed the children).
        # Exceptions raised *by* a task -- a failing store.put, say --
        # propagate untouched; silently re-running everything in-process
        # would mask the real failure and double the compute.
        pool = None
        try:
            pool = ProcessPoolExecutor(max_workers=min(workers, len(chunks)))
        except OSError:
            emit("sweep: process pool unavailable; evaluating in-process")
        if pool is not None:
            try:
                with pool:
                    futures = {
                        pool.submit(_evaluate_chunk, chunk, store_dir): i
                        for i, chunk in enumerate(chunks)
                    }
                    by_chunk: dict[int, list[dict]] = {}
                    pending = set(futures)
                    done_count = 0
                    while pending:
                        done, pending = wait(pending, return_when=FIRST_COMPLETED)
                        for future in done:
                            index = futures[future]
                            by_chunk[index] = future.result()
                            done_count += 1
                            if seal and store is not None:
                                _seal_records(
                                    store, chunks[index], by_chunk[index], emit
                                )
                                maybe_merge_store(store, merge_every, emit)
                        emit(
                            f"sweep: evaluated {done_count}/{len(chunks)} "
                            f"shards (workers={workers})"
                        )
                return [
                    record
                    for i in range(len(chunks))
                    for record in by_chunk[i]
                ]
            except BrokenProcessPool:
                emit("sweep: process pool broke; evaluating in-process")
    records = []
    for count, task in enumerate(tasks, start=1):
        record = evaluate_task(task)
        if store is not None and not seal:
            store.put(task.key, record)
        records.append(record)
        if count % 50 == 0:
            emit(f"sweep: evaluated {count}/{len(tasks)} scenarios")
    if seal and store is not None:
        _seal_records(store, tasks, records, emit)
        maybe_merge_store(store, merge_every, emit)
    return records
