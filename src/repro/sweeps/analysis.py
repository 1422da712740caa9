"""Pandas-free columnar aggregation over unified result rows.

This module is the single aggregation layer behind sweeps, the figure
runners, and the CLIs: everything that produces evaluation numbers --
``run_sweep`` records, the ``experiments/fig*`` compilations, ``python -m
repro.sweeps analyze`` and ``repro.cli --sweep-summary`` -- emits or
consumes the same flat :class:`ResultTable` rows, so marginals, pivots and
crossover detection are written exactly once.

Row schema
----------

One row per evaluated (benchmark, technique, scenario) point.  Columns, in
canonical order:

- **identity** -- ``benchmark``, ``technique``, ``spec_name``, ``shots``,
  ``seed`` (``shots``/``seed`` are ``None`` for analytic-only figure rows);
- **axes** -- one column per swept :class:`~repro.hardware.spec.HardwareSpec`
  field (named by the field, e.g. ``cz_error``; ``None`` on rows that did
  not override it), one ``noise_<field>`` column per
  :class:`~repro.noise.fidelity.NoiseModelConfig` field, plus any extra
  caller-supplied columns (e.g. ``aod_count``, ``return_home``);
- **compile metrics** -- ``num_cz``, ``num_u3``, ``num_ccz``, ``num_swaps``,
  ``num_moves``, ``trap_change_events``, ``num_layers``, ``runtime_us``;
- **analytic** -- ``analytic_success``, the closed-form success estimate;
- **empirical** -- ``success_rate``, ``stderr``, ``successes``,
  ``gate_failures``, ``movement_failures``, ``decoherence_failures``,
  ``readout_failures`` (all ``None`` on rows that were never Monte Carlo
  sampled).

Tables are duck-compatible with
:class:`~repro.experiments.common.ExperimentTable` (``title`` / ``headers``
/ ``rows``), so the markdown report renderer and ``format_table`` accept
either kind interchangeably.
"""

from __future__ import annotations

import csv
import io
import typing
from dataclasses import dataclass, fields as dataclass_fields

from repro.noise.fidelity import NoiseModelConfig, channel_probabilities
from repro.utils.tables import format_table

if typing.TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
    from repro.core.result import CompilationResult
    from repro.sweeps.store import SweepStore

__all__ = [
    "AGGREGATIONS",
    "ANALYTIC_COLUMNS",
    "Crossover",
    "IDENTITY_COLUMNS",
    "METRIC_COLUMNS",
    "OUTCOME_COLUMNS",
    "RESULT_COLUMNS",
    "ResultTable",
    "canonical_order",
    "crossover_payload",
    "marginal_payload",
    "pivot_payload",
    "record_row",
    "render_store_summary",
    "table_payload",
    "technique_summary",
]

#: Identity columns present on every row.
IDENTITY_COLUMNS: tuple[str, ...] = (
    "benchmark", "technique", "spec_name", "shots", "seed",
)
#: Compile-side metrics (from :class:`CompilationResult`).
RESULT_COLUMNS: tuple[str, ...] = (
    "num_cz", "num_u3", "num_ccz", "num_swaps", "num_moves",
    "trap_change_events", "num_layers", "runtime_us",
)
#: Closed-form success estimate.
ANALYTIC_COLUMNS: tuple[str, ...] = ("analytic_success",)
#: Monte Carlo outcome metrics (None on analytic-only rows).
OUTCOME_COLUMNS: tuple[str, ...] = (
    "success_rate", "stderr", "successes", "gate_failures",
    "movement_failures", "decoherence_failures", "readout_failures",
)
#: Every aggregatable (value) column; the complement is axis/identity space.
METRIC_COLUMNS: tuple[str, ...] = (
    RESULT_COLUMNS + ANALYTIC_COLUMNS + OUTCOME_COLUMNS
)

_NOISE_FIELDS: tuple[str, ...] = tuple(
    f.name for f in dataclass_fields(NoiseModelConfig)
)

_AGGREGATES: dict[str, "Callable[[list], float]"] = {
    "mean": lambda vs: sum(vs) / len(vs),
    "min": min,
    "max": max,
    "median": lambda vs: (
        sorted(vs)[len(vs) // 2]
        if len(vs) % 2
        else (sorted(vs)[len(vs) // 2 - 1] + sorted(vs)[len(vs) // 2]) / 2.0
    ),
    "sum": sum,
    "count": len,
}

#: Aggregation names :meth:`ResultTable.marginal` / :meth:`ResultTable.pivot`
#: accept -- the validation surface for callers (the query daemon rejects
#: anything else with a 400 before touching the table).
AGGREGATIONS: tuple[str, ...] = tuple(sorted(_AGGREGATES))


def canonical_order(names: "Iterable[str]") -> list[str]:
    """Column names in the canonical unified-row order.

    Identity columns first (fixed order), then axis/extra columns sorted
    by name, then the metric columns (fixed order).  Shared by every
    producer of unified rows -- :meth:`ResultTable.from_rows`, the packed
    segments' columnar sidecars, and the store's bulk loader -- so any two
    paths over the same records agree column-for-column (and therefore
    byte-for-byte in CSV output).
    """
    names = set(names)
    ordered = [c for c in IDENTITY_COLUMNS if c in names]
    known = set(IDENTITY_COLUMNS) | set(METRIC_COLUMNS)
    ordered += sorted(names - known)
    ordered += [c for c in METRIC_COLUMNS if c in names]
    return ordered


def record_row(record: "Mapping") -> dict:
    """Flatten one sweep-store record dict into a unified row.

    The single definition of the record -> row mapping: used by
    :meth:`ResultTable.from_records` at load time and by
    :mod:`repro.sweeps.segments` when sealing a segment's columnar
    sidecar, so a packed store and its loose twin flatten identically.
    """
    scenario = record.get("scenario") or {}
    row: dict = {
        "benchmark": scenario.get("benchmark"),
        "technique": scenario.get("technique"),
        "spec_name": scenario.get("spec_name"),
        "shots": scenario.get("shots"),
        "seed": scenario.get("seed"),
    }
    for name, value in (scenario.get("spec_overrides") or {}).items():
        row[name] = value
    # Technique-config axes flatten bare like spec axes (records written
    # before the config-axis era simply lack the field).
    for name, value in (scenario.get("config_overrides") or {}).items():
        row[name] = value
    for name, value in (scenario.get("noise") or {}).items():
        row[f"noise_{name}"] = value
    row.update(record.get("result") or {})
    outcome = record.get("outcome") or {}
    for name in OUTCOME_COLUMNS:
        row[name] = outcome.get(name)
    row["analytic_success"] = record.get("analytic_success")
    return row


def _plain_values(values) -> list:
    """Normalize one column to a plain Python list of plain Python values.

    The zero-copy store path hands :class:`ResultTable` NumPy array views
    and lazily decoded sidecar columns; everything downstream (sort
    tokens, ``isinstance(v, int)`` axis detection, CSV formatting) assumes
    pure-Python scalars -- ``np.int64`` is *not* an ``int`` -- so columns
    normalize exactly once, here, at the access boundary.  Duck-typed
    (``materialize``/``tolist``) so this module needs neither NumPy nor
    :mod:`repro.sweeps.segments` imports.
    """
    materialize = getattr(values, "materialize", None)
    if materialize is not None:
        return materialize()
    tolist = getattr(values, "tolist", None)
    if tolist is not None:
        return tolist()
    return values if isinstance(values, list) else list(values)


def _sort_token(value: object) -> tuple:
    """Total order over mixed axis values (None < numbers < everything else)."""
    if value is None:
        return (0, 0.0, "")
    if isinstance(value, bool):
        return (1, float(value), "")
    if isinstance(value, (int, float)):
        return (1, float(value), "")
    return (2, 0.0, str(value))


@dataclass(frozen=True)
class Crossover:
    """One detected lead change between two series along a numeric axis.

    ``first`` leads (has the larger metric) below ``axis_value`` and
    ``second`` leads above it -- i.e. ``second`` *overtakes* ``first`` as
    the axis grows.  ``metric_value`` is the (interpolated) metric where
    the two series meet.
    """

    group: tuple
    first: str
    second: str
    axis: str
    axis_value: float
    metric: str
    metric_value: float

    def describe(self) -> str:
        prefix = "/".join(str(g) for g in self.group)
        prefix = f"{prefix}: " if prefix else ""
        return (
            f"{prefix}{self.second} overtakes {self.first} at "
            f"{self.axis}={self.axis_value:.6g} "
            f"({self.metric}={self.metric_value:.6g})"
        )

    def as_dict(self) -> dict:
        """JSON-ready mapping of every field plus the prose description
        (the ``/crossovers`` wire format; keys are append-only)."""
        return {
            "group": list(self.group),
            "first": self.first,
            "second": self.second,
            "axis": self.axis,
            "axis_value": self.axis_value,
            "metric": self.metric,
            "metric_value": self.metric_value,
            "description": self.describe(),
        }


class ResultTable:
    """An immutable columnar table of unified result rows.

    Construct through :meth:`from_records` (sweep record dicts),
    :meth:`from_store` (a :class:`~repro.sweeps.store.SweepStore`), or
    :meth:`from_compilations` (figure-runner compilations); combine with
    :meth:`concat`; aggregate with :meth:`marginal`, :meth:`pivot`, and
    :meth:`crossovers`; render with :meth:`render`, :meth:`to_csv`, or any
    consumer of the ``title``/``headers``/``rows`` protocol.
    """

    def __init__(
        self,
        columns: "Mapping[str, Sequence]",
        title: str = "results",
    ) -> None:
        # Columnar backends (NumPy views over an mmap'd sidecar, lazy
        # sidecar columns) are adopted without copying or decoding --
        # anything with ``materialize``/``tolist`` converts on first
        # access through ``_list`` instead.  Plain sequences are copied
        # into lists exactly as before.
        self._columns: dict = {
            name: (
                values
                if hasattr(values, "materialize") or hasattr(values, "tolist")
                else list(values)
            )
            for name, values in columns.items()
        }
        lengths = {len(values) for values in self._columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self.title = title

    def _list(self, name: str) -> list:
        """One column as a cached plain-Python list (the normalization
        boundary for lazy/NumPy-backed columns)."""
        values = self._columns[name]
        if type(values) is not list:
            values = _plain_values(values)
            self._columns[name] = values
        return values

    # -- construction ----------------------------------------------------------

    _canonical_order = staticmethod(canonical_order)

    @classmethod
    def from_rows(
        cls, rows: "Sequence[Mapping[str, object]]", title: str = "results"
    ) -> "ResultTable":
        """Build a table from row dicts (missing cells become ``None``)."""
        names = cls._canonical_order({k for row in rows for k in row})
        return cls(
            {name: [row.get(name) for row in rows] for name in names},
            title=title,
        )

    @classmethod
    def from_records(
        cls, records: "Iterable[Mapping]", title: str = "sweep results"
    ) -> "ResultTable":
        """Flatten sweep-store record dicts (the ``SCHEMA_VERSION`` payload
        documented in :mod:`repro.sweeps.store`) into unified rows."""
        return cls.from_rows([record_row(r) for r in records], title=title)

    @classmethod
    def from_store(
        cls, store: "SweepStore", title: str | None = None
    ) -> "ResultTable":
        """Load every readable record of ``store`` in key order.

        Stores holding packed segments (see :meth:`SweepStore.compact`)
        take the bulk fast path: each segment's binary columnar sidecar
        is memory-mapped into zero-copy NumPy views (no JSON parse at
        all; gated >=10x over loose at 10^4 records in
        ``benchmarks/test_perf_store_load.py``), a segment whose sidecar
        is missing or damaged is read by its frame scan -- and both are
        identical, down to the CSV bytes, to the loose per-file path.
        Merged (generation-tagged) and freshly sealed segments read the
        same way; :meth:`SweepStore.merge` never changes these bytes.
        Pure loose stores stream through :meth:`SweepStore.records`.
        """
        title = title or f"sweep results ({store.directory})"
        loader = getattr(store, "analysis_columns", None)
        packed = loader() if loader is not None else None
        if packed is not None:
            names, columns = packed
            return cls(dict(zip(names, columns)), title=title)
        return cls.from_records(store.records(), title=title)

    @classmethod
    def from_compilations(
        cls,
        entries: "Iterable[tuple]",
        noise: NoiseModelConfig | None = None,
        title: str = "compilation results",
    ) -> "ResultTable":
        """Unified rows from compiled artifacts (no Monte Carlo sampling).

        Each entry is ``(benchmark, technique, CompilationResult)`` or
        ``(benchmark, technique, CompilationResult, extra_columns_dict)``.
        ``analytic_success`` is the channel-probability product under
        ``noise``; every empirical column is ``None``.
        """
        noise = noise or NoiseModelConfig()
        rows = []
        for entry in entries:
            benchmark, technique, result = entry[:3]
            extra = dict(entry[3]) if len(entry) > 3 else {}
            row = {
                "benchmark": benchmark,
                "technique": technique,
                "spec_name": result.spec.name,
                "shots": None,
                "seed": None,
                "analytic_success": channel_probabilities(result, noise).product,
                **{name: getattr(result, name) for name in RESULT_COLUMNS},
                **{name: None for name in OUTCOME_COLUMNS},
                **extra,
            }
            rows.append(row)
        return cls.from_rows(rows, title=title)

    @classmethod
    def concat(
        cls, tables: "Sequence[ResultTable]", title: str | None = None
    ) -> "ResultTable":
        """Stack tables row-wise (column sets are unioned, gaps are None)."""
        rows = [row for table in tables for row in table.row_dicts()]
        return cls.from_rows(
            rows, title=title or (tables[0].title if tables else "results")
        )

    # -- shape and access ------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Column names in canonical order."""
        return tuple(self._columns)

    @property
    def headers(self) -> tuple[str, ...]:
        """Alias of :attr:`names` (ExperimentTable rendering protocol)."""
        return self.names

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Row tuples in column order (ExperimentTable rendering protocol)."""
        columns = [self._list(name) for name in self._columns]
        return tuple(zip(*columns)) if columns else ()

    def __len__(self) -> int:
        return len(next(iter(self._columns.values()), []))

    def column(self, name: str) -> list:
        """One column as a list; raises ``KeyError`` naming valid columns."""
        try:
            return list(self._list(name))
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {list(self._columns)}"
            ) from None

    def row_dicts(self) -> list[dict]:
        """Every row as a ``{column: value}`` dict."""
        names = self.names
        return [dict(zip(names, row)) for row in self.rows]

    def distinct(self, name: str) -> list:
        """Sorted distinct non-None values of one column."""
        return sorted(
            {v for v in self.column(name) if v is not None}, key=_sort_token
        )

    def filter(self, **where: object) -> "ResultTable":
        """Rows whose columns equal every ``where`` value."""
        cols = {name: self.column(name) for name in where}
        keep = [
            i
            for i in range(len(self))
            if all(cols[name][i] == value for name, value in where.items())
        ]
        return ResultTable(
            {
                name: [values[i] for i in keep]
                for name, values in ((n, self._list(n)) for n in self._columns)
            },
            title=self.title,
        )

    def axes(self) -> tuple[str, ...]:
        """Columns that actually sweep: non-metric columns with >= 2
        distinct non-None values (``seed`` excluded -- it varies by
        construction, never as an axis)."""
        skip = set(METRIC_COLUMNS) | {"seed"}
        return tuple(
            name
            for name in self.names
            if name not in skip and len(self.distinct(name)) >= 2
        )

    def numeric_axes(self) -> tuple[str, ...]:
        """The :meth:`axes` whose values are all numeric (interpolatable)."""
        return tuple(
            name
            for name in self.axes()
            if all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in self.distinct(name)
            )
        )

    # -- aggregation -----------------------------------------------------------

    def marginal(
        self,
        value: str = "analytic_success",
        over: str | None = None,
        group_by: "Sequence[str]" = ("benchmark", "technique"),
        agg: str = "mean",
    ) -> "ResultTable":
        """Aggregate ``value`` over every other axis.

        Groups rows by ``group_by`` (and, when given, each distinct value of
        the ``over`` axis), then applies ``agg`` (mean/median/min/max/sum/
        count) to the ``value`` column within each group; None cells are
        ignored.  Returns a new table with columns ``(*group_by, over?,
        value, "n")``, groups sorted, axis values in ascending order.
        """
        if agg not in _AGGREGATES:
            raise ValueError(f"unknown agg {agg!r}; one of {sorted(_AGGREGATES)}")
        group_by = tuple(group_by)
        key_cols = [self.column(name) for name in group_by]
        if over is not None:
            key_cols.append(self.column(over))
        values = self.column(value)
        groups: dict[tuple, list] = {}
        for i in range(len(self)):
            key = tuple(col[i] for col in key_cols)
            groups.setdefault(key, [])
            if values[i] is not None:
                groups[key].append(values[i])
        fn = _AGGREGATES[agg]
        out_names = [*group_by, *((over,) if over is not None else ()), value, "n"]
        out_rows = []
        for key in sorted(groups, key=lambda k: tuple(map(_sort_token, k))):
            vals = groups[key]
            aggregated = fn(vals) if vals else None
            out_rows.append(dict(zip(out_names, [*key, aggregated, len(vals)])))
        table = ResultTable.from_rows(out_rows, title=f"{agg}({value})")
        # from_rows canonicalizes column order; restore the declared one.
        return ResultTable(
            {name: table.column(name) for name in out_names},
            title=table.title,
        )

    def pivot(
        self,
        index: str,
        column: str,
        value: str,
        column_order: "Sequence" = (),
        name: "Callable[[object], str]" = str,
        agg: str = "mean",
    ) -> "ResultTable":
        """Spread ``column``'s values into columns of aggregated ``value``.

        One output row per distinct ``index`` value (first-appearance
        order preserved, so figure tables keep their benchmark order); a
        cell holding a single row's value keeps that value exactly,
        multiple rows are combined with ``agg``.  Missing cells are None.
        """
        if agg not in _AGGREGATES:
            raise ValueError(f"unknown agg {agg!r}; one of {sorted(_AGGREGATES)}")
        idx_vals = self.column(index)
        col_vals = self.column(column)
        values = self.column(value)
        index_order = list(dict.fromkeys(idx_vals))
        columns = (
            list(column_order) if column_order else self.distinct(column)
        )
        cells: dict[tuple, list] = {}
        for i in range(len(self)):
            if values[i] is not None:
                cells.setdefault((idx_vals[i], col_vals[i]), []).append(values[i])
        fn = _AGGREGATES[agg]
        out: dict[str, list] = {index: index_order}
        for col in columns:
            out[name(col)] = [
                (
                    None
                    if (iv, col) not in cells
                    else cells[iv, col][0]
                    if len(cells[iv, col]) == 1
                    else fn(cells[iv, col])
                )
                for iv in index_order
            ]
        return ResultTable(out, title=f"{value} by {column}")

    def crossovers(
        self,
        axis: str,
        value: str = "analytic_success",
        by: str = "technique",
        group_by: "Sequence[str]" = ("benchmark",),
        pairs: "Sequence[tuple[str, str]] | None" = None,
    ) -> list[Crossover]:
        """Detect lead changes between ``by`` series along a numeric axis.

        For every group and every pair of ``by`` values, the ``value``
        marginal is taken over ``axis`` (mean across all other axes), the
        two series are compared at their common axis points, and each sign
        change of the difference is located by monotone piecewise-linear
        interpolation between the bracketing points (exact zeros count as
        crossings at the grid point itself).  Answers questions like "at
        what cz_error does ELDI overtake Graphine?".
        """
        group_by = tuple(group_by)
        marg = self.marginal(
            value=value, over=axis, group_by=(*group_by, by), agg="mean"
        )
        series: dict[tuple, dict[str, dict[float, float]]] = {}
        rows = marg.row_dicts()
        for row in rows:
            group = tuple(row[g] for g in group_by)
            if row[value] is None or row[axis] is None:
                continue
            series.setdefault(group, {}).setdefault(row[by], {})[row[axis]] = row[
                value
            ]
        if pairs is None:
            names = self.distinct(by)
            pairs = [
                (a, b)
                for i, a in enumerate(names)
                for b in names[i + 1 :]
            ]
        found: list[Crossover] = []
        for group in sorted(series, key=lambda g: tuple(map(_sort_token, g))):
            per_tech = series[group]
            for a, b in pairs:
                sa, sb = per_tech.get(a), per_tech.get(b)
                if not sa or not sb:
                    continue
                xs = sorted(set(sa) & set(sb))
                if len(xs) < 2:
                    continue
                diffs = [sa[x] - sb[x] for x in xs]
                # Sign of the most recent nonzero difference: lets a lead
                # flip across a zero *plateau* (series exactly equal at
                # one or more consecutive grid points) still register.
                lead_sign = 0
                for i in range(len(xs) - 1):
                    d0, d1 = diffs[i], diffs[i + 1]
                    if d0 != 0.0:
                        lead_sign = 1 if d0 > 0 else -1
                    if d0 * d1 < 0.0:
                        # Strict sign change: interpolate the bracketing
                        # segment (both series are linear on it, so the
                        # crossing of the difference is exact).
                        t = d0 / (d0 - d1)
                        x_star = xs[i] + t * (xs[i + 1] - xs[i])
                        y_star = sa[xs[i]] + t * (sa[xs[i + 1]] - sa[xs[i]])
                    elif (
                        d0 == 0.0
                        and d1 != 0.0
                        and lead_sign * d1 < 0.0
                    ):
                        # The series touch exactly at grid points and the
                        # lead flips across the touch; report the last
                        # touching point (the plateau's right edge).
                        x_star, y_star = float(xs[i]), sa[xs[i]]
                    else:
                        continue
                    lead_after = a if d1 > 0 else b
                    first = b if lead_after == a else a
                    found.append(
                        Crossover(
                            group=group,
                            first=first,
                            second=lead_after,
                            axis=axis,
                            axis_value=float(x_star),
                            metric=value,
                            metric_value=float(y_star),
                        )
                    )
        return found

    # -- rendering -------------------------------------------------------------

    def render(self, title: str | None = None) -> str:
        """Aligned monospace rendering (figure-style text output)."""
        return format_table(
            list(self.headers),
            [list(row) for row in self.rows],
            title=title or self.title,
        )

    def iter_csv(self, chunk_rows: int = 2048) -> "Iterator[str]":
        """Yield the table's CSV in chunks of at most ``chunk_rows`` rows.

        The streaming form of :meth:`to_csv` -- the concatenation of the
        chunks is byte-identical to it (``to_csv`` is literally this
        generator joined), so a consumer reassembling a streamed extract
        (the query daemon's ``/csv`` endpoint) gets the same bytes as an
        in-process dump, while the producer never holds more than one
        chunk of rendered text at a time.  The header line rides in the
        first chunk.
        """
        if chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.names)
        pending = 0
        for row in self.rows:
            writer.writerow(["" if v is None else v for v in row])
            pending += 1
            if pending >= chunk_rows:
                yield buffer.getvalue()
                buffer.seek(0)
                buffer.truncate(0)
                pending = 0
        tail = buffer.getvalue()
        if tail:
            yield tail

    def to_csv(self) -> str:
        """RFC-4180 CSV of the full table (None cells become empty)."""
        return "".join(self.iter_csv())


def technique_summary(
    table: ResultTable, metric: str = "analytic_success"
) -> ResultTable:
    """Per-(benchmark, technique) mean of ``metric`` plus empirical range.

    The shared aggregate behind the sweep CLI's end-of-run table,
    ``analyze``, and ``--sweep-summary``: one row per (benchmark,
    technique) with the mean of ``metric``, the contributing row count
    ``n``, and -- when the table carries Monte Carlo samples --
    ``empirical_mean`` / ``empirical_min`` / ``empirical_max`` of the
    success rate.  Extra columns are merged by group key, never by
    position, so the alignment cannot silently drift.
    """
    summary = table.marginal(value=metric, group_by=("benchmark", "technique"))
    columns = {name: summary.column(name) for name in summary.names}
    if any(v is not None for v in table.column("success_rate")):
        groups = list(zip(summary.column("benchmark"), summary.column("technique")))
        for label, agg in (
            ("empirical_mean", "mean"),
            ("empirical_min", "min"),
            ("empirical_max", "max"),
        ):
            marg = table.marginal(
                value="success_rate",
                group_by=("benchmark", "technique"),
                agg=agg,
            )
            by_group = {
                (bench, tech): value
                for bench, tech, value in zip(
                    marg.column("benchmark"),
                    marg.column("technique"),
                    marg.column("success_rate"),
                )
            }
            columns[label] = [by_group.get(group) for group in groups]
    return ResultTable(
        columns,
        title=f"{len(table)} rows -- mean {metric} by benchmark/technique",
    )


def render_store_summary(
    table: ResultTable,
    metric: str = "analytic_success",
    axis: str | None = None,
) -> str:
    """The shared ``analyze``/``--sweep-summary`` report for one table.

    Renders :func:`technique_summary` (mean ``metric`` plus the empirical
    range when the table was Monte Carlo sampled), names the detected
    sweep axes, and appends the crossover report along ``axis`` (or every
    numeric axis when unspecified).
    """
    if not len(table):
        return "no records"
    parts = [technique_summary(table, metric=metric).render()]
    axes = table.axes()
    parts.append(
        "axes: " + (", ".join(axes) if axes else "(none -- single point)")
    )
    crossover_axes = (axis,) if axis else table.numeric_axes()
    crossings: list[Crossover] = []
    for ax in crossover_axes:
        crossings.extend(table.crossovers(axis=ax, value=metric))
    parts.append(
        f"crossovers ({metric} vs {', '.join(crossover_axes) or 'n/a'}): "
        f"{len(crossings)} found"
    )
    parts.extend(f"  - {c.describe()}" for c in crossings)
    return "\n".join(parts)


# -- JSON-ready aggregation payloads -------------------------------------------
#
# The query daemon (:mod:`repro.sweeps.serve`) serves aggregations over HTTP
# and caches the rendered responses keyed by store generation.  These entry
# points are the cacheable surface: pure functions of (table, parameters)
# returning JSON-ready dicts, so one definition backs the wire format, the
# daemon's cache, and in-process callers that want the same shapes.  Every
# payload echoes its parameters under ``"params"`` and keeps its keys
# append-only, like the stable output-line contracts.


def table_payload(table: ResultTable) -> dict:
    """One table as a JSON-ready ``{title, names, rows}`` mapping.

    Rows are lists in :attr:`ResultTable.names` order with ``None`` for
    missing cells -- the dense transport format shared by ``/marginal``
    and ``/pivot`` (cell values are plain Python scalars by the time they
    cross :class:`ResultTable`'s access boundary, so the dict serializes
    with :func:`json.dumps` as-is).
    """
    return {
        "title": table.title,
        "names": list(table.names),
        "rows": [list(row) for row in table.rows],
    }


def marginal_payload(
    table: ResultTable,
    value: str = "analytic_success",
    over: str | None = None,
    group_by: "Sequence[str]" = ("benchmark", "technique"),
    agg: str = "mean",
) -> dict:
    """:meth:`ResultTable.marginal` as a JSON-ready payload.

    Raises ``ValueError``/``KeyError`` exactly like the method for unknown
    aggregates or columns; the daemon maps those to HTTP 400.
    """
    out = table.marginal(value=value, over=over, group_by=tuple(group_by), agg=agg)
    return {
        "params": {
            "value": value,
            "over": over,
            "group_by": list(group_by),
            "agg": agg,
        },
        **table_payload(out),
    }


def pivot_payload(
    table: ResultTable,
    index: str,
    column: str,
    value: str,
    agg: str = "mean",
) -> dict:
    """:meth:`ResultTable.pivot` as a JSON-ready payload (400 semantics as
    :func:`marginal_payload`)."""
    out = table.pivot(index=index, column=column, value=value, agg=agg)
    return {
        "params": {
            "index": index,
            "column": column,
            "value": value,
            "agg": agg,
        },
        **table_payload(out),
    }


def crossover_payload(
    table: ResultTable,
    axis: str,
    value: str = "analytic_success",
    by: str = "technique",
    group_by: "Sequence[str]" = ("benchmark",),
) -> dict:
    """:meth:`ResultTable.crossovers` as a JSON-ready payload."""
    found = table.crossovers(
        axis=axis, value=value, by=by, group_by=tuple(group_by)
    )
    return {
        "params": {
            "axis": axis,
            "value": value,
            "by": by,
            "group_by": list(group_by),
        },
        "count": len(found),
        "crossovers": [crossing.as_dict() for crossing in found],
    }
