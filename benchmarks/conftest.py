"""Shared fixtures for the benchmark harness.

Each ``test_figN_*.py`` / ``test_tableN_*.py`` module regenerates one table
or figure of the paper: it runs the corresponding experiment (timed by
pytest-benchmark), prints the same rows the paper reports, and asserts the
*shape* of the result (who wins, roughly by how much) rather than absolute
numbers, since the substrate is a simulator rather than the authors'
testbed.

Benchmarks default to the quick benchmark subset so a full
``pytest benchmarks/ --benchmark-only`` run stays in the minutes range.
Set ``REPRO_BENCH_FULL=1`` to sweep all 18 Table III workloads.

Perf trajectory: the speedup-gate modules (``test_perf_noisy_shots``,
``test_perf_store_load``) report their measured timings through
:func:`record_perf`; when ``PERF_JSON`` is set in the environment, the
session writes every entry to that path as machine-readable JSON.  CI's
``perf-trajectory`` job uploads the file (``BENCH_RUN.json``) as a workflow
artifact, so the perf numbers are tracked per-PR instead of living and
dying inside a log.
"""

from __future__ import annotations

import json
import os
import platform

import pytest

from repro.experiments.common import ALL_BENCHMARKS, QUICK_BENCHMARKS

_PERF_ENTRIES: list[dict] = []


def record_perf(name: str, **fields) -> None:
    """Log one perf measurement (seconds, speedups, sizes -- any scalars).

    Entries accumulate for the whole pytest session and are flushed to
    ``$PERF_JSON`` at exit; without the env var this is a no-op sink, so
    the gates stay dependency-free locally.
    """
    _PERF_ENTRIES.append({"name": name, **fields})


def pytest_sessionfinish(session, exitstatus):
    path = os.environ.get("PERF_JSON")
    if not path or not _PERF_ENTRIES:
        return
    from repro import __version__

    payload = {
        "schema_version": 1,
        "engine_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "exit_status": int(exitstatus),
        "entries": _PERF_ENTRIES,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

#: Benchmarks every figure module sweeps.
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
BENCH_SET: tuple[str, ...] = ALL_BENCHMARKS if FULL else QUICK_BENCHMARKS

#: Subset used by the movement/parallelization figures.
FIG11_SET: tuple[str, ...] = (
    ("ADV", "KNN", "QV", "SECA", "SQRT", "WST") if FULL else ("ADV", "SECA", "WST")
)


@pytest.fixture(scope="session")
def perf():
    """The :func:`record_perf` sink, as a fixture (no conftest imports)."""
    return record_perf


@pytest.fixture(scope="session")
def bench_set() -> tuple[str, ...]:
    return BENCH_SET


@pytest.fixture(scope="session")
def fig11_set() -> tuple[str, ...]:
    return FIG11_SET


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    Experiment runners memoize compilations, so multi-round timing would
    measure cache hits; one timed round reflects the real regeneration cost.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
