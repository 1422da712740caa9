"""Whole-grid compile-path speedup gate (vectorized hot path, PR 6).

The gate compiles the full task list behind the default 108-scenario sweep
grid twice from cold caches:

- **vectorized**: the production path -- numpy candidate/violation kernels
  in the movement engine, batched scheduler blockade checks, hoisted
  placement objective arrays, fingerprint memoization, and in-flight
  deduplication of content-identical tasks;
- **reference**: the retained pre-vectorization path behind
  :func:`repro.utils.kernels.use_reference_kernels` -- scalar kernels,
  no memoization, no in-flight dedup (every task compiles independently,
  exactly like the seed's dispatch).

Two assertions: the vectorized path must be at least ``MIN_SPEEDUP``x
faster end to end, and every one of the 108 results must serialize
byte-identically between the two modes -- the speedup is inadmissible if
it changes a single compilation.  Timings are best-of-N so scheduler
noise cannot flake the gate, and the measurement is reported through
:func:`record_perf` for the committed perf trajectory
(``BENCH_8.json``, compared by ``tools/bench_trajectory.py`` in CI).
"""

import time

import pytest

from repro.core.serialize import dumps_result
from repro.experiments.common import (
    clear_caches,
    prepared_circuit,
    settings_config_factory,
)
from repro.pipeline.batch import CompileTask, compile_tasks
from repro.pipeline.cache import CompilationCache
from repro.sweeps.grid import SweepGrid
from repro.sweeps.runner import plan_sweep
from repro.utils.kernels import use_reference_kernels

#: The gated end-to-end speedup over the whole default grid.
MIN_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def grid_tasks():
    """One CompileTask per scenario of the default grid (duplicates kept).

    The per-scenario list -- not the deduplicated point list -- is the
    honest workload: the seed's dispatch compiled every scenario's point
    independently against a cold cache, and the in-flight dedup that
    collapses the duplicates is part of what this gate measures.
    """
    grid = SweepGrid.default()
    plan = plan_sweep(grid)
    factory = settings_config_factory(plan.settings)
    tasks = []
    for compile_id in plan.compile_ids:
        benchmark_name, technique, spec = plan.point_specs[compile_id]
        circuit = prepared_circuit(benchmark_name)
        tasks.append(
            CompileTask(
                technique, circuit, spec, factory(technique, circuit, spec)
            )
        )
    return tasks


def _compile_grid(tasks):
    """One cold-cache sequential compile of the whole task list."""
    clear_caches()
    return compile_tasks(tasks, workers=1, cache=CompilationCache())


def _best_of(fn, rounds):
    best_t, out = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best_t:
            best_t, out = elapsed, result
    return best_t, out


def test_grid_compile_speedup_and_bit_identity(grid_tasks, perf):
    _compile_grid(grid_tasks)  # warm numpy dispatch + circuit fingerprints
    t_vec, vec_results = _best_of(lambda: _compile_grid(grid_tasks), rounds=3)
    with use_reference_kernels():
        t_ref, ref_results = _best_of(
            lambda: _compile_grid(grid_tasks), rounds=2
        )

    assert len(vec_results) == len(ref_results) == len(grid_tasks)
    for vec, ref in zip(vec_results, ref_results):
        assert dumps_result(vec) == dumps_result(ref)  # byte-identical

    unique = len({id(result) for result in vec_results})
    speedup = t_ref / t_vec
    perf(
        "compile_grid.vectorized_vs_reference",
        tasks=len(grid_tasks),
        unique_points=unique,
        vectorized_s=t_vec,
        reference_s=t_ref,
        speedup=speedup,
        gate=MIN_SPEEDUP,
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized grid compile only {speedup:.1f}x faster than the "
        f"reference path ({t_vec:.3f}s vs {t_ref:.3f}s; gate {MIN_SPEEDUP}x)"
    )


def test_grid_compile_timing(benchmark, grid_tasks):
    """pytest-benchmark visibility for the production path (one round)."""
    results = benchmark.pedantic(
        _compile_grid, args=(grid_tasks,), rounds=1, iterations=1
    )
    assert len(results) == len(grid_tasks)
