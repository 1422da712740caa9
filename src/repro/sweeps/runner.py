"""Execute a :class:`~repro.sweeps.grid.SweepGrid` end to end.

The grid is first expanded into a :class:`SweepPlan` by
:func:`plan_sweep` -- the deterministic work list (scenarios, store keys,
deduplicated compile points) that every execution strategy shares.  The
runner then separates the two costs of a sweep and shards each across its
own process pool:

1. **Compilation** -- the unique ``(benchmark, technique, compile spec)``
   points behind the scenario list (noise-only spec axes collapse here) are
   deduplicated and fanned through the parallel batch engine
   (:func:`repro.experiments.common.compile_points`, ``workers`` processes,
   shared content-addressed cache).
2. **Evaluation** -- every pending scenario becomes an
   :class:`~repro.sweeps.engine.EvalTask` and is sampled by
   :func:`~repro.sweeps.engine.evaluate_tasks`: in-process when
   ``eval_workers == 1``, otherwise chunked over a ``ProcessPoolExecutor``
   whose workers write each finished record straight through the store's
   atomic per-scenario files -- or, with ``seal=True``, hand their chunk's
   records back for the driver to pack into a segment.

Every scenario's compile config and Monte Carlo seed are fixed before any
work runs, so the produced records are bit-identical for any ``workers`` or
``eval_workers`` value.  With a :class:`~repro.sweeps.store.SweepStore`
attached, each record is persisted as soon as it is evaluated (with
``seal=True``: as soon as its chunk is sealed); ``resume=True`` then skips
every scenario already on disk, which is what lets an interrupted sweep
restart without recomputing what it had persisted.

A third execution strategy, ``run_sweep(distributed=True, workers=N)``,
replaces the two pools with N coordinator-free work-stealing workers over
the store's lease protocol (:mod:`repro.sweeps.distributed`) -- same
plan, same records, byte-identical store.
"""

from __future__ import annotations

import time
import typing
from dataclasses import dataclass, field, replace

from repro.experiments.common import (
    ExperimentSettings,
    compile_points,
    prepared_circuit,
    settings_config_factory,
)
from repro.pipeline.fingerprint import fingerprint_config, fingerprint_circuit, fingerprint_spec
from repro.sweeps.engine import EvalTask, evaluate_tasks
from repro.sweeps.grid import SweepGrid
from repro.sweeps.store import SweepStore, scenario_key
from repro.utils.profiling import PhaseTimer

if typing.TYPE_CHECKING:
    from collections.abc import Callable
    from repro.core.result import CompilationResult

__all__ = ["SweepPlan", "SweepReport", "plan_sweep", "run_sweep"]


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one sweep run.

    Attributes:
        records: one record dict per scenario, in grid order (see
            :mod:`repro.sweeps.store` for the schema).
        computed: scenarios evaluated in this run.
        resumed: scenarios served from the store without recomputation.
        compilations: unique compile points dispatched this run.
        elapsed_s: wall-clock duration of the run.
        phase_totals: aggregated per-stage compile wall-clock seconds,
            keyed ``"<technique>.<stage>"`` and merged across workers
            (empty when every compilation was a cache hit).
    """

    records: tuple
    computed: int
    resumed: int
    compilations: int
    elapsed_s: float
    phase_totals: dict = field(default_factory=dict)

    @property
    def scenarios(self) -> int:
        return len(self.records)

    @property
    def compile_s(self) -> float:
        """Total compile wall-clock seconds across all stages and workers."""
        return float(sum(self.phase_totals.values()))

    @property
    def summary_line(self) -> str:
        """Stable machine-readable one-liner for scripts and CI.

        The ``key=value`` fields are a compatibility contract: CI greps
        ``RESUME computed=0 resumed=N`` to assert a no-op resume, so the
        prefix and the first two fields must never be reworded (append new
        fields at the end instead).
        """
        return (
            f"RESUME computed={self.computed} resumed={self.resumed} "
            f"scenarios={self.scenarios} compilations={self.compilations} "
            f"compile_s={self.compile_s:.3f}"
        )


@dataclass(frozen=True)
class SweepPlan:
    """The fully-determined work list one grid expands to.

    Everything a worker needs to evaluate any scenario of the grid --
    scenarios, store keys, deduplicated compile points, and fingerprints --
    computed once, before any work runs.  Both the single-process runner
    and every distributed claim-loop worker build the *same* plan from the
    same grid, which is what makes their outputs byte-identical: keys,
    seeds, and task contents are pure functions of grid content.

    Attributes:
        settings: the experiment settings the compile configs derive from.
        scenarios: the (possibly ``limit``-truncated) scenario list, in
            grid order.
        keys: ``scenarios[i]``'s store address, aligned by index.
        compile_ids: ``scenarios[i]``'s compile-point identity, aligned by
            index (scenarios differing only in noise-only fields share one;
            scenarios differing in a config axis never do).
        point_specs: compile id -> the point tuple
            :func:`repro.experiments.common.compile_points` takes --
            ``(benchmark, technique, compile_spec)``, with the scenario's
            ``config_overrides`` appended as a fourth element when
            non-empty; insertion-ordered by first use.
        fingerprints: ``scenarios[i]``'s circuit/spec/config fingerprints,
            aligned by index (recorded in the output record).
    """

    settings: ExperimentSettings
    scenarios: tuple
    keys: tuple
    compile_ids: tuple
    point_specs: dict = field(repr=False)
    fingerprints: tuple = field(repr=False)

    def __len__(self) -> int:
        return len(self.scenarios)

    def task(self, index: int, result: "CompilationResult") -> EvalTask:
        """The evaluation task for ``scenarios[index]`` given its compiled
        artifact (swapping the effective spec onto it for noise-only axes:
        error rates never influence compilation)."""
        scenario = self.scenarios[index]
        if scenario.spec != result.spec:
            result = replace(result, spec=scenario.spec)
        return EvalTask(
            key=self.keys[index],
            scenario=scenario,
            result=result,
            fingerprints=self.fingerprints[index],
        )


def plan_sweep(
    grid: SweepGrid,
    settings: ExperimentSettings | None = None,
    limit: int | None = None,
) -> SweepPlan:
    """Expand ``grid`` into its deterministic :class:`SweepPlan`.

    Pure with respect to grid content: scenario order, store keys, Monte
    Carlo seeds, and compile-point dedup depend only on the grid (and
    ``settings``), never on the calling process, worker count, or wall
    clock.
    """
    settings = settings or ExperimentSettings()
    if limit is not None and limit <= 0:
        raise ValueError(f"limit must be positive, got {limit}")
    scenarios = grid.scenarios()
    if limit is not None:
        scenarios = scenarios[:limit]

    # One config factory per distinct config-overrides point: config axes
    # replace fields of the base settings, and the factory output is what
    # the store key's config fingerprint hashes.
    factories: dict[tuple, object] = {
        (): settings_config_factory(settings)
    }
    circuit_fps: dict[str, str] = {}
    config_fps: dict[tuple, str] = {}
    keys: list[str] = []
    compile_ids: list[tuple] = []
    fingerprints: list[dict] = []
    point_specs: dict[tuple, tuple] = {}
    for scenario in scenarios:
        benchmark = scenario.benchmark
        overrides = scenario.config_overrides
        if overrides not in factories:
            factories[overrides] = settings_config_factory(
                replace(settings, **dict(overrides))
            )
        if benchmark not in circuit_fps:
            circuit_fps[benchmark] = fingerprint_circuit(prepared_circuit(benchmark))
        compile_id = (
            benchmark,
            scenario.technique,
            fingerprint_spec(scenario.compile_spec),
            overrides,
        )
        if compile_id not in config_fps:
            config_fps[compile_id] = fingerprint_config(
                factories[overrides](
                    scenario.technique,
                    prepared_circuit(benchmark),
                    scenario.compile_spec,
                )
            )
            point = (benchmark, scenario.technique, scenario.compile_spec)
            point_specs[compile_id] = point + (overrides,) if overrides else point
        compile_ids.append(compile_id)
        keys.append(
            scenario_key(scenario, circuit_fps[benchmark], config_fps[compile_id])
        )
        fingerprints.append(
            {
                "circuit": circuit_fps[benchmark],
                "spec": fingerprint_spec(scenario.spec),
                "config": config_fps[compile_id],
            }
        )
    return SweepPlan(
        settings=settings,
        scenarios=tuple(scenarios),
        keys=tuple(keys),
        compile_ids=tuple(compile_ids),
        point_specs=point_specs,
        fingerprints=tuple(fingerprints),
    )


def run_sweep(
    grid: SweepGrid,
    store: SweepStore | None = None,
    *,
    resume: bool = False,
    workers: int = 1,
    eval_workers: int = 1,
    limit: int | None = None,
    seal: bool = False,
    merge: bool = False,
    merge_every: int | None = None,
    distributed: bool = False,
    lease_range: int = 1,
    settings: ExperimentSettings | None = None,
    log: "Callable[[str], None] | None" = None,
) -> SweepReport:
    """Evaluate every scenario of ``grid``; returns records in grid order.

    Args:
        grid: the scenario grid to expand and evaluate.
        store: optional on-disk store; every evaluated record is persisted
            immediately (so a killed run keeps its progress), or at seal
            boundaries with ``seal``.  Required when ``distributed=True``.
        resume: with a store, skip scenarios whose records already exist;
            without it, existing entries are recomputed and overwritten.
        workers: process-pool size for the compilation phase.  With
            ``distributed=True`` this is instead the number of spawned
            claim-loop worker processes (each compiles its own claims).
        eval_workers: process-pool size for the evaluation phase
            (``--eval-jobs``); records are bit-identical for any value.
            Ignored when ``distributed=True``.
        limit: only evaluate the first ``limit`` scenarios of the grid
            (truncation cannot shift any scenario's content-derived seed).
        seal: with a store, pack each evaluation chunk's records into a
            segment straight from memory as it completes (``--seal``; the
            in-process path seals once, at the end), writing no loose
            file, so the run ends with a bulk-loadable store.  Progress is
            durable at those seal boundaries rather than per record: a
            killed run recomputes its unsealed chunks on resume.  Record
            content, and every store file, equal those of an unsealed run
            followed by ``compact``.  Distributed workers keep spilling
            loose records and compact them in batches.
        merge: with a store, run :meth:`SweepStore.merge` after the sweep
            finishes (``--merge``): loose records are sealed, small
            segments fold into large generation-tagged ones, and the
            manifest is checkpointed; record content is unchanged.
        merge_every: with a store and ``seal``, opportunistically fold
            segments *mid-sweep* whenever the pending manifest delta
            count reaches this threshold (``--merge-every``; see
            :meth:`SweepStore.maybe_merge`).  Requires ``seal=True`` --
            deltas only accumulate from sealing.  In distributed runs
            each worker checks at its own seal boundaries and the
            exclusive merge lock elects at most one merger at a time.
        distributed: spawn ``workers`` independent work-stealing workers
            over the store's lease protocol instead of the two sharded
            pools (see :mod:`repro.sweeps.distributed`).  Distributed runs
            always resume -- the claim loop is idempotent over whatever is
            already stored -- and produce records byte-identical to any
            other mode.
        lease_range: with ``distributed=True``, keys per lease block
            (``--lease-range``; see
            :func:`repro.sweeps.distributed.range_blocks`).  1 keeps the
            classic per-key protocol.
        settings: experiment settings the compile configs derive from
            (defaults match the figure runners, so compilations are shared).
        log: optional progress sink (e.g. ``print``).
    """
    emit_merge = log or (lambda message: None)
    if merge_every is not None:
        if merge_every <= 0:
            raise ValueError(f"merge_every must be positive, got {merge_every}")
        if not seal:
            raise ValueError("merge_every requires seal=True (deltas only accumulate from sealing)")
    if distributed:
        from repro.sweeps.distributed import run_distributed

        if store is None:
            raise ValueError("distributed=True requires a store")
        report = run_distributed(
            grid,
            store,
            workers=workers,
            seal=seal,
            merge_every=merge_every,
            limit=limit,
            lease_range=lease_range,
            settings=settings,
            log=log,
        )
        if merge:
            emit_merge(f"sweep: {store.merge().summary_line}")
        return report
    start = time.perf_counter()
    emit = log or (lambda message: None)
    plan = plan_sweep(grid, settings=settings, limit=limit)
    scenarios, keys = plan.scenarios, plan.keys
    emit(f"sweep: {len(scenarios)} scenarios ({grid.size} grid points)")

    records: list = [None] * len(scenarios)
    resumed = 0
    if store is not None and resume:
        for index, key in enumerate(keys):
            record = store.get(key)
            if record is not None:
                records[index] = record
                resumed += 1
        emit(f"sweep: resumed {resumed} scenarios from {store.directory}")

    pending = [i for i, record in enumerate(records) if record is None]

    # Dedup compile points across pending scenarios (order-preserving).
    point_order: list[tuple] = []
    seen_points: set[tuple] = set()
    for index in pending:
        compile_id = plan.compile_ids[index]
        if compile_id not in seen_points:
            seen_points.add(compile_id)
            point_order.append(compile_id)
    compiled: dict[tuple, "CompilationResult"] = {}
    phase_timer = PhaseTimer()
    if point_order:
        emit(
            f"sweep: compiling {len(point_order)} unique points "
            f"for {len(pending)} scenarios (workers={workers})"
        )
        pairs = compile_points(
            [plan.point_specs[cid] for cid in point_order],
            settings=plan.settings,
            workers=workers,
            return_timings=True,
        )
        compiled = dict(zip(point_order, (result for result, _ in pairs)))
        for _, stage_times in pairs:
            if stage_times:
                phase_timer.merge(stage_times)

    tasks = [plan.task(index, compiled[plan.compile_ids[index]]) for index in pending]
    if tasks:
        emit(
            f"sweep: evaluating {len(tasks)} scenarios "
            f"(eval_workers={eval_workers})"
        )
    computed_records = evaluate_tasks(
        tasks,
        store=store,
        workers=eval_workers,
        seal=seal,
        merge_every=merge_every,
        log=emit,
    )
    for index, record in zip(pending, computed_records):
        records[index] = record

    if merge and store is not None:
        emit(f"sweep: {store.merge().summary_line}")

    elapsed = time.perf_counter() - start
    emit(
        f"sweep: done -- {len(pending)} computed, {resumed} resumed, "
        f"{len(point_order)} compilations in {elapsed:.1f}s"
    )
    return SweepReport(
        records=tuple(records),
        computed=len(pending),
        resumed=resumed,
        compilations=len(point_order),
        elapsed_s=elapsed,
        phase_totals=phase_timer.totals(),
    )
