"""Scenario sweeps: hardware/noise parameter grids over the batch engine.

This subsystem answers "how do the paper's conclusions move as the machine
moves?" at scale: a declarative grid of (circuit, technique, hardware spec,
noise model) scenarios is expanded deterministically, compiled through the
parallel batch engine, evaluated by the vectorized Monte Carlo shot
simulator, and persisted to a resumable content-addressed store.

Components
----------

- :mod:`repro.sweeps.grid` -- :class:`SweepGrid`, the declarative grid: a
  base :class:`~repro.hardware.spec.HardwareSpec` plus *spec axes* (any
  spec field -> list of values) and *noise axes* (any
  :class:`~repro.noise.fidelity.NoiseModelConfig` field -> values), crossed
  with benchmarks and techniques.  Expansion yields :class:`Scenario`
  objects in a fixed order with content-derived Monte Carlo seeds, so
  results never depend on worker count, completion order, or grid
  subsetting.  Spec fields only the noise model reads
  (:data:`~repro.sweeps.grid.NOISE_ONLY_SPEC_FIELDS`) are detected at
  expansion: scenarios differing only there share one compiled artifact.
- :mod:`repro.sweeps.runner` -- :func:`run_sweep`: dedups the grid's unique
  compile points, fans them through
  :func:`repro.experiments.common.compile_points` (process pool + shared
  compilation cache), then hands every pending scenario to the evaluation
  engine.
- :mod:`repro.sweeps.engine` -- the sharded evaluation phase:
  :func:`evaluate_tasks` partitions pending scenarios into contiguous
  chunks, fans the chunks over a ``ProcessPoolExecutor``
  (``eval_workers`` / ``--eval-jobs``), and has each worker sample its
  scenarios with the :class:`~repro.sim.noisy.NoisyShotSimulator`
  multinomial fast path and persist records one by one through the
  store's atomic writes -- bit-identical for any worker count, resumable
  even when killed mid-shard.
- :mod:`repro.sweeps.analysis` -- the unified aggregation layer:
  :class:`ResultTable`, a pandas-free columnar table of flat result rows
  shared with the figure runners, with marginals over any grid axis,
  pivots, pairwise technique-crossover detection (piecewise-linear
  interpolation), and text/CSV renderers.  ``python -m repro.sweeps
  analyze STORE`` and ``repro.cli --sweep-summary`` are thin shells over
  it.
- :mod:`repro.sweeps.store` -- :class:`SweepStore`: one atomically-written
  JSON record per scenario, named by a SHA-256 scenario address covering
  the circuit/config/spec/noise fingerprints plus shots, seed, and package
  version (see the module docstring for the exact record schema).  A killed
  sweep keeps every finished scenario; rerunning with ``resume`` skips them
  byte-for-byte.
- :mod:`repro.sweeps.segments` -- the packed store backend:
  :meth:`SweepStore.compact` seals loose records into immutable,
  checksummed, length-prefixed segment files behind a sharded manifest
  (16 key-prefix shard files plus an append-only delta log, checkpointed
  by merge), so publishing a segment costs O(new records) rather than
  O(store).  Resume semantics are untouched (corrupt or truncated data
  reads as missing-with-warning), but a full-store load becomes
  O(segments) bulk reads, and each segment's memory-mapped binary
  columnar sidecar lets ``ResultTable.from_store`` serve analysis columns
  without building per-record dicts (~10x+ faster at 10^4 records).
  :meth:`SweepStore.merge` rewrites accumulated small segments into large
  generation-tagged ones, checkpoints the manifest, and garbage-collects
  superseded files -- idempotent and kill-safe.
- :mod:`repro.sweeps.distributed` -- coordinator-free distributed sweeps:
  N independent :func:`run_worker` claim loops (one host or many hosts on
  a shared filesystem) steal pending work through atomically created
  lease files in the store (heartbeat by mtime, expired leases of crashed
  workers reclaimed after a TTL), evaluate it through the same engine,
  and converge on a store byte-identical to a single-process run for any
  worker count and any crash/restart interleaving.  With
  ``lease_range > 1`` workers claim contiguous ranges of the key-sorted
  plan (:func:`range_blocks`) so one lease file amortizes over hundreds
  of evaluations.  ``run_sweep(distributed=True, workers=N)`` /
  ``--workers N`` is the local spawn-and-join form;
  ``python -m repro.sweeps worker STORE`` joins a fleet from anywhere.
- :mod:`repro.sweeps.serve` -- the long-lived HTTP query daemon
  (``python -m repro.sweeps serve STORE``): :class:`SweepServer` answers
  ``/stats``, ``/columns``, ``/records/<key>``, ``/marginal``,
  ``/pivot``, ``/crossovers`` and chunk-streamed ``/csv`` off the
  store's mmap'd sidecar columns, caching hot :class:`ResultTable`
  aggregations per manifest generation; the generation token is the
  HTTP ``ETag``, so unchanged stores revalidate as 304s and a
  merge/compact/sweep landing underneath the live daemon invalidates
  every cache at its atomic manifest swap.
- ``python -m repro.sweeps`` -- the CLI: ``--preset smoke|default`` or
  explicit ``--benchmarks/--techniques/--spec-axis/--noise-axis``, with
  ``--jobs`` (compilation pool), ``--eval-jobs`` (evaluation pool),
  ``--workers`` (distributed claim-loop workers), ``--lease-range``
  (scenarios per lease), ``--shots``, ``--store``, ``--resume``,
  ``--seal`` (compact chunks as they complete) and ``--merge`` (compact
  generations after the run); plus the ``worker STORE`` subcommand (join
  a distributed fleet), ``compact STORE`` (pack an existing store),
  ``merge STORE`` (generational compaction), ``stats STORE`` (census),
  ``serve STORE`` (the HTTP query daemon) and ``analyze STORE`` for
  marginals, axis detection, and crossover reports.
  Run and worker print one stable machine-readable
  ``RESUME computed=N resumed=M ...`` line, compact prints
  ``COMPACT sealed=...``, merge prints ``MERGE sealed=...`` and stats
  prints ``STATS loose=...`` -- the grep contract CI and scripts rely on
  (see ``docs/store-format.md``).

Example::

    from repro.sweeps import SweepGrid, SweepStore, run_sweep

    grid = SweepGrid(
        benchmarks=("ADD", "QAOA"),
        techniques=("parallax", "graphine"),
        spec_axes={"cz_error": (0.0024, 0.0048, 0.0096)},
        noise_axes={"include_readout": (False, True)},
        shots=2000,
    )
    report = run_sweep(grid, SweepStore("sweep-out"), resume=True, workers=8)
    best = max(report.records, key=lambda r: r["outcome"]["success_rate"])
"""

from repro.sweeps.analysis import Crossover, ResultTable, render_store_summary
from repro.sweeps.grid import NOISE_ONLY_SPEC_FIELDS, Scenario, SweepGrid
from repro.sweeps.store import (
    SCHEMA_VERSION,
    CompactionReport,
    MergeReport,
    StoreStats,
    SweepStore,
    scenario_key,
)

__all__ = [
    "NOISE_ONLY_SPEC_FIELDS",
    "CompactionReport",
    "Crossover",
    "EvalTask",
    "MergeReport",
    "ResultTable",
    "Scenario",
    "StoreStats",
    "SweepGrid",
    "SweepPlan",
    "SweepReport",
    "SweepServer",
    "WorkerReport",
    "evaluate_tasks",
    "plan_sweep",
    "range_blocks",
    "render_store_summary",
    "run_distributed",
    "run_sweep",
    "run_worker",
    "serve_store",
    "SCHEMA_VERSION",
    "SweepStore",
    "scenario_key",
]

# The runner and the evaluation engine sit *above* repro.experiments.common
# (they dispatch compilations through it), while repro.experiments.common
# itself builds its unified tables on repro.sweeps.analysis.  Importing them
# lazily (PEP 562) keeps `import repro.experiments.common` free of the
# cycle while `from repro.sweeps import run_sweep` keeps working.
_LAZY = {
    "SweepPlan": "repro.sweeps.runner",
    "SweepReport": "repro.sweeps.runner",
    "plan_sweep": "repro.sweeps.runner",
    "run_sweep": "repro.sweeps.runner",
    "EvalTask": "repro.sweeps.engine",
    "evaluate_tasks": "repro.sweeps.engine",
    "WorkerReport": "repro.sweeps.distributed",
    "range_blocks": "repro.sweeps.distributed",
    "run_distributed": "repro.sweeps.distributed",
    "run_worker": "repro.sweeps.distributed",
    "SweepServer": "repro.sweeps.serve",
    "serve_store": "repro.sweeps.serve",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
