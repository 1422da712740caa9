"""The benchmark's workloads: seeded inputs, nothing else.

Every workload is one *session* of the system -- ingest a QASM corpus,
compile its points cold, sweep a scenario grid into a store, analyze the
store, and serve it to a keep-alive reader while a writer sweeps further
slices underneath.  The three workloads differ only in the shape of those
inputs, which decides where the time goes:

- ``table3-compile``: the 18 Table III circuits x 3 techniques at the base
  spec, one noise point (54 scenarios, 54 compile points).
- ``noise-grid``: ADD, QAOA, QFT x 3 techniques x 40 ``cz_error`` x 20
  ``t2_us`` x readout on/off (14,400 scenarios over 9 compile points).
- ``serve-mixed``: a 432-scenario store of the noise-grid's make-up, built
  at set-up; the session is almost all reads, with a writer step after
  every read round, and repeats the base grid's cold pass into a scratch
  store.

Writer steps seal their slice; each session ends with one merge.

Everything here is a pure function of ``(name, seed, small)``: the same
seed gives the same axis values, Monte Carlo seeds and read schedule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("table3-compile", "noise-grid", "serve-mixed")
TECHNIQUES = ("parallax", "graphine", "eldi")
TABLE3 = (
    "ADD", "ADV", "GCM", "HSB", "HLF", "KNN", "MLT", "QAOA", "QEC",
    "QFT", "QGAN", "QV", "SAT", "SECA", "SQRT", "TFIM", "VQE", "WST",
)
#: Table II CZ error: the one noise point of table3-compile.
TABLE2_CZ_ERROR = 0.0048


@dataclass(frozen=True)
class Workload:
    """The inputs of one session.

    Attributes:
        name: workload name.
        seed: the workload seed everything below derives from.
        benchmarks: Table III acronyms exported to the session's corpus.
        cz_values / t2_values / readout: the base grid's axes (``t2_values``
            empty means no ``t2_us`` axis).
        shots: Monte Carlo shots per scenario.
        build_at_setup: the base grid is swept at set-up (serve-mixed), not
            in the session.
        reads_per_round: reader requests between two writer steps.
        min_rounds: read rounds every session makes, whatever its length.
        analyze_reps: analyses of the base store at the start and after
            every read round (the fastest is reported).
        compile_reps: cold compile passes over every point at the start,
            and as many again after every ``compile_every``-th read round
            (median reported per point; the last one at the start feeds
            the sweep).
        closing_ingest: ingest once more after the read rounds (for an
            ingest too long to repeat every round).
        writer_points: new ``cz_error`` values one writer step sweeps.
        cold_passes: cold passes of the base grid into a scratch store at
            the start and after every read round (median reported).
    """

    name: str
    seed: int
    benchmarks: tuple
    cz_values: tuple
    t2_values: tuple
    readout: tuple
    shots: int
    build_at_setup: bool
    reads_per_round: int
    min_rounds: int
    analyze_reps: int
    compile_reps: int
    writer_points: int = 1
    cold_passes: int = 0
    compile_every: int = 1
    closing_ingest: bool = False

    def writer_cz(self, step: int) -> tuple:
        """The ``cz_error`` values of writer step ``step``: above every base
        value, strictly increasing, and a pure function of (seed, step)."""
        rng = random.Random(f"{self.seed}:writer:{step}")
        first = step * self.writer_points
        return tuple(
            round(0.0205 + 1e-4 * (first + i + 0.25 + 0.5 * rng.random()), 12)
            for i in range(self.writer_points)
        )

    @property
    def base_size(self) -> int:
        return (
            len(self.benchmarks) * len(TECHNIQUES) * len(self.cz_values)
            * max(len(self.t2_values), 1) * len(self.readout)
        )

    @property
    def slice_size(self) -> int:
        """Scenarios one writer step adds."""
        return self.base_size // len(self.cz_values) * self.writer_points


def _stratified(rng: random.Random, lo: float, hi: float, n: int, log: bool) -> tuple:
    """``n`` strictly increasing draws, one from the middle half of each of
    ``n`` equal strata of [lo, hi] (log-spaced when ``log``), so adjacent
    values never crowd together."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    width = (b - a) / n
    out = []
    for i in range(n):
        x = a + width * (i + 0.25 + 0.5 * rng.random())
        out.append(round(math.exp(x) if log else x, 12))
    return tuple(out)


def make_workload(name: str, seed: int, small: bool = False) -> Workload:
    """The seeded inputs of workload ``name`` (``small`` shrinks every
    dimension so a session takes seconds)."""
    rng = random.Random(f"{seed}:{name}")
    if name == "table3-compile":
        return Workload(
            name=name, seed=seed,
            benchmarks=("ADD", "QEC", "WST") if small else TABLE3,
            cz_values=(TABLE2_CZ_ERROR,), t2_values=(), readout=(False,),
            shots=1000, build_at_setup=False,
            reads_per_round=20 if small else 58,
            min_rounds=2 if small else 4, analyze_reps=100, compile_reps=1,
            compile_every=2, closing_ingest=True,
        )
    if name == "noise-grid":
        n_cz, n_t2 = (4, 3) if small else (40, 20)
        return Workload(
            name=name, seed=seed, benchmarks=("ADD", "QAOA", "QFT"),
            cz_values=_stratified(rng, 1e-3, 2e-2, n_cz, log=True),
            t2_values=_stratified(rng, 0.3e6, 3.0e6, n_t2, log=False),
            readout=(False, True), shots=2000,
            build_at_setup=False,
            reads_per_round=20 if small else 58,
            min_rounds=2 if small else 4, analyze_reps=3,
            compile_reps=2 if small else 3,
        )
    if name == "serve-mixed":
        n_cz, n_t2 = (2, 2) if small else (6, 4)
        return Workload(
            name=name, seed=seed, benchmarks=("ADD", "QAOA", "QFT"),
            cz_values=_stratified(rng, 1e-3, 2e-2, n_cz, log=True),
            t2_values=_stratified(rng, 0.3e6, 3.0e6, n_t2, log=False),
            readout=(False, True), shots=2000,
            build_at_setup=True,
            reads_per_round=20 if small else 58,
            min_rounds=2 if small else 4, analyze_reps=40,
            compile_reps=2 if small else 3, writer_points=4,
            cold_passes=1 if small else 3,
        )
    raise ValueError(f"unknown workload {name!r}; one of {', '.join(WORKLOADS)}")


def grid(workload: Workload, ids: dict, cz_values: tuple | None = None):
    """The :class:`~repro.sweeps.SweepGrid` over the corpus ids ``ids``
    (acronym -> workload id); ``cz_values`` replaces the base axis (a
    writer step's slice)."""
    from repro.sweeps import SweepGrid

    spec_axes = {"cz_error": cz_values or workload.cz_values}
    if workload.t2_values:
        spec_axes["t2_us"] = workload.t2_values
    noise_axes = {"include_readout": workload.readout} if len(workload.readout) > 1 else {}
    return SweepGrid(
        benchmarks=tuple(ids[b] for b in workload.benchmarks),
        techniques=TECHNIQUES,
        spec_axes=spec_axes,
        noise_axes=noise_axes,
        shots=workload.shots,
        base_seed=workload.seed,
    )


def read_schedule(workload: Workload, round_index: int, crossovers_ok: bool) -> list:
    """The reader's requests for one round, as ``(route, if_none_match)``.

    The round opens with one read of each route the daemon caches per
    generation -- the default marginal (sent with the now stale ETag),
    ``/stats``, the second marginal, ``/pivot`` and ``/crossovers`` -- so
    the fresh queries always sit at the same place after the writer step.
    The rest is a shuffled mix with fixed counts: record lookups, the
    cached aggregations again, one ``/csv`` extract, and ``If-None-Match``
    revalidations on a quarter of them.  Only the order, the records asked
    for and which reads revalidate are seeded.  ``crossovers`` is left out
    until the store has two ``cz_error`` points.
    """
    opening = [("marginal", "stale"), ("stats", None), ("marginal2", None), ("pivot", None)]
    if crossovers_ok:
        opening.append(("crossovers", None))
    n = workload.reads_per_round - len(opening)
    n_each = max(1, n // 8)
    routes = (
        ["csv"] + ["marginal"] * n_each + ["marginal2"] * n_each
        + ["pivot"] * n_each + ["crossovers" if crossovers_ok else "marginal2"] * n_each
        + ["stats"] * n_each
    )
    routes += ["record"] * (n - len(routes))
    rng = random.Random(f"{workload.seed}:reads:{round_index}")
    rng.shuffle(routes)
    revalidate = [i < n // 4 for i in range(n)]
    rng.shuffle(revalidate)
    return opening + [
        (route, "current" if flag else None) for route, flag in zip(routes, revalidate)
    ]


ROUTES = {
    "marginal": "/marginal?value=analytic_success&over=cz_error&group_by=benchmark,technique&agg=mean",
    "marginal2": "/marginal?value=success_rate&group_by=benchmark,technique&agg=max",
    "pivot": "/pivot?index=benchmark&column=technique&value=analytic_success&agg=mean",
    "crossovers": "/crossovers?axis=cz_error",
    "stats": "/stats",
    "csv": "/csv",
}
