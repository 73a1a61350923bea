"""Aggregation of finished grids into the paper's tables.

The executor hands back flat :class:`JobOutcome` lists; the figures
want pivots — approaches × metrics per dataset (Figure 7), approaches ×
sweep-points of runtime overhead (Figure 8), seed-averaged cells
everywhere.  These helpers do that reshaping on outcomes (job + result
pairs), since the job carries the grid coordinates the result dataclass
doesn't (rows, feature count, error recipe, seed).
"""

from __future__ import annotations

import csv
import dataclasses
import json
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from statistics import fmean

from ..pipeline.experiment import EvaluationResult
from ..pipeline.report import format_results_table
from .executor import JobOutcome
from .spec import _COMPONENT_AXES, _JOB_AXES

__all__ = ["cell_key", "group_outcomes", "mean_result",
           "aggregate_over_seeds", "pivot", "grid_table",
           "overhead_series", "filter_outcomes", "outcome_records",
           "export_json", "export_csv", "format_pivot_table",
           "grid_slices"]

#: EvaluationResult fields a pivot can aggregate directly; any other
#: ``value`` resolves through ``result.raw`` (audit metrics like
#: ``cf_mean_gap``/``ctf_de``, the signed fairness values).
_METRIC_FIELDS = ("accuracy", "precision", "recall", "f1", "di_star",
                  "tprb", "tnrb", "id", "te", "nde", "nie",
                  "fit_seconds")


def _axis_value(job, attr: str):
    """A job attribute as a grouping value.

    Component axes (dataset/approach/model/error/imputer)
    include their registry parameter overrides — rendered as the
    canonical spec string — so ``Celis-pp(tau=0.7)`` and
    ``Celis-pp(tau=0.9)`` land in different rows instead of being
    silently averaged.  Parameter-free cells keep the bare key.
    """
    if attr in _COMPONENT_AXES:
        key = getattr(job, attr)
        params = getattr(job, f"{attr}_params")
        if key is None or not params:
            return key
        from ..registry import format_spec
        return format_spec(key, params)
    return getattr(job, attr)


def cell_key(outcome: JobOutcome) -> tuple:
    """Grid coordinates of a cell with the seed dimension removed.

    Parameter overrides and the audit are part of the coordinates:
    cells that differ only in ``tau`` (or in ``audit``) aggregate
    separately.
    """
    job = outcome.job
    return (*(_axis_value(job, axis) for axis in _COMPONENT_AXES),
            job.rows, job.n_features, job.audit)


def group_outcomes(outcomes: Iterable[JobOutcome], attr: str
                   ) -> dict[object, list[JobOutcome]]:
    """Partition successful outcomes by one job axis, preserving
    first-seen order of the axis values.

    Component axes group by the parameterized label (via
    ``_axis_value``), exactly like :func:`cell_key` and :func:`pivot`:
    ``Celis-pp(tau=0.7)`` and ``Celis-pp(tau=0.9)`` outcomes form two
    groups, not one silently merged ``Celis-pp``.
    """
    groups: dict[object, list[JobOutcome]] = {}
    for outcome in outcomes:
        if outcome.ok:
            groups.setdefault(_axis_value(outcome.job, attr), []).append(
                outcome)
    return groups


def mean_result(results: Sequence[EvaluationResult]) -> EvaluationResult:
    """Metric-wise mean of results from one cell across seeds.

    Identity fields (approach, dataset, stage) come from the first
    result; every numeric metric — including the raw signed values —
    is averaged.  A ``raw`` key missing from some results (e.g. an
    audit that failed on one seed) is averaged over the seeds that do
    carry it, so partial audit coverage stays visible instead of the
    key vanishing from the aggregate without trace.
    """
    if not results:
        raise ValueError("cannot average an empty result list")
    if len(results) == 1:
        return results[0]
    first = results[0]
    averaged = {name: fmean(getattr(r, name) for r in results)
                for name in _METRIC_FIELDS}
    raw_values: dict[str, list[float]] = {}
    for result in results:
        for key, value in result.raw.items():
            raw_values.setdefault(key, []).append(value)
    raw = {key: fmean(values) for key, values in raw_values.items()}
    return dataclasses.replace(first, raw=raw, **averaged)


def aggregate_over_seeds(outcomes: Iterable[JobOutcome]
                         ) -> list[EvaluationResult]:
    """Collapse the seed dimension: one mean result per distinct cell,
    in the grid's first-seen order.  Failed cells are dropped.

    Cells run with approach parameter overrides get the parameterized
    label (``Celis-pp(tau=0.9)``) as their ``approach`` so table rows
    stay distinguishable.
    """
    groups: dict[tuple, list[JobOutcome]] = {}
    for outcome in outcomes:
        if outcome.ok:
            groups.setdefault(cell_key(outcome), []).append(outcome)
    aggregated = []
    for cell in groups.values():
        result = mean_result([o.result for o in cell])
        if cell[0].job.approach_params:
            result = dataclasses.replace(
                result, approach=cell[0].job.approach_label)
        aggregated.append(result)
    return aggregated


def pivot(outcomes: Iterable[JobOutcome], index: str, columns: str,
          value: str) -> dict[object, dict[object, float]]:
    """Generic two-way pivot of a metric over two job attributes.

    Returns ``{index_value: {column_value: mean metric}}`` with both
    axes in first-seen grid order; cells observed under several seeds
    are averaged.  ``value`` is a numeric ``EvaluationResult`` field
    or any ``result.raw`` key (``"di"``, ``"cf_mean_gap"``,
    ``"ctf_de"``, …); outcomes lacking the raw key
    are skipped, and a ``value`` no outcome carries raises ``KeyError``
    naming everything available, as does an axis that is not a job
    axis.
    """
    check_axes((index, columns))
    from_field = value in _METRIC_FIELDS
    raw_keys: set[str] = set()
    acc: dict[object, dict[object, list[float]]] = {}
    for outcome in outcomes:
        if not outcome.ok:
            continue
        if from_field:
            metric = getattr(outcome.result, value)
        else:
            raw_keys.update(outcome.result.raw)
            metric = outcome.result.raw.get(value)
            if metric is None:
                continue
        row = _axis_value(outcome.job, index)
        col = _axis_value(outcome.job, columns)
        acc.setdefault(row, {}).setdefault(col, []).append(metric)
    if not from_field and not acc:
        raise KeyError(f"unknown metric {value!r}; choose from "
                       f"{sorted(_METRIC_FIELDS)} or a raw key "
                       f"({sorted(raw_keys) or 'none stored'})")
    return {row: {col: fmean(vals) for col, vals in cols.items()}
            for row, cols in acc.items()}


def grid_table(outcomes: Iterable[JobOutcome], dataset: str | None = None,
               title: str = "") -> str:
    """Render a grid slice as the paper's results table (Figure 7
    shape): one row per approach, seed-averaged, baseline first when
    the grid listed it first."""
    selected = [o for o in outcomes
                if dataset is None or o.job.dataset == dataset]
    return format_results_table(aggregate_over_seeds(selected),
                                title=title)


def overhead_series(outcomes: Iterable[JobOutcome], sweep: str = "rows"
                    ) -> dict[str, dict[int, float]]:
    """Figure 8 shape: per-approach fit-time overhead over the plain
    baseline along one sweeping job attribute.

    ``{approach: {sweep_value: max(fit - baseline_fit, 0)}}`` — the
    grid must include the baseline (``approach=None``), which supplies
    the subtracted plain-model fit time.  Sweep points whose baseline
    cell is missing (e.g. it failed) are dropped rather than reported
    as raw fit times masquerading as overhead.
    """
    fit_times = pivot(outcomes, index="approach", columns=sweep,
                      value="fit_seconds")
    if None not in fit_times:
        raise ValueError("overhead_series needs the baseline "
                         "(approach=None) in the grid")
    baseline = fit_times.pop(None)
    series: dict[str, dict[int, float]] = {}
    for approach, points in fit_times.items():
        series[approach] = {
            point: max(seconds - baseline[point], 0.0)
            for point, seconds in points.items() if point in baseline}
    return series


# ----------------------------------------------------------------------
# Querying and exporting cached sweeps
# ----------------------------------------------------------------------
_NONE_SPELLINGS = frozenset({"none", "null", ""})


def _normalise_axis_query(axis: str, value):
    """Normalise a user-supplied ``axis=value`` constraint to the form
    :func:`_axis_value` produces, so string queries from the CLI match
    jobs exactly (``approach="Celis-pp(tau=0.8)"`` matches the bare
    ``Celis-pp`` because 0.8 restates the declared default)."""
    if isinstance(value, str) and value.lower() in _NONE_SPELLINGS:
        value = None
    if axis in ("seed", "rows", "n_features"):
        if value is None:
            return None
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"{axis} must be an integer, got {value!r}") from None
    if value is None or axis == "audit":
        return value
    from ..registry import APPROACHES, DATASETS, ERRORS, IMPUTERS, MODELS
    registry = {"dataset": DATASETS, "approach": APPROACHES,
                "model": MODELS, "error": ERRORS, "imputer": IMPUTERS}[axis]
    if axis == "approach":
        from .spec import _normalise_approach
        if _normalise_approach(value) is None:
            return None
    return registry.canonical(value)


def check_axes(axes: Iterable[str]) -> None:
    """Raise ``KeyError`` naming every axis that is not a job axis
    (:data:`_JOB_AXES`) and the choices."""
    unknown = sorted(set(axes) - set(_JOB_AXES))
    if unknown:
        raise KeyError(f"unknown report axis(es) {unknown}; choose "
                       f"from {sorted(_JOB_AXES)}")


def _normalise_where(where: Mapping[str, object]) -> dict[str, object]:
    """Validate ``axis=value`` constraints and normalise each value
    (:func:`_normalise_axis_query`); unknown axes raise ``KeyError``.
    Shared by :func:`filter_outcomes` and the SQL store's row scan."""
    check_axes(where)
    return {axis: _normalise_axis_query(axis, value)
            for axis, value in where.items()}


def filter_outcomes(outcomes: Iterable[JobOutcome],
                    where: Mapping[str, object]) -> list[JobOutcome]:
    """Outcomes whose job matches every ``axis=value`` constraint.

    Axes are the job's grid coordinates (:data:`_JOB_AXES`); component
    values may be bare keys or parameterized specs and are
    canonicalised through the registry before matching, numeric axes
    accept strings, and ``none``/``null`` select cells where the axis
    is unset.  Unknown axes raise ``KeyError`` before any matching.
    """
    constraints = _normalise_where(where)
    return [outcome for outcome in outcomes
            if all(_axis_value(outcome.job, axis) == value
                   for axis, value in constraints.items())]


#: Axes grid_slices partitions on — everything that distinguishes
#: Figure-7 table rows except the approach (the row label) and the
#: seed (aggregated away).
_SLICE_AXES = ("dataset", "error", "imputer", "rows", "n_features",
               "audit")


def grid_slices(outcomes: Iterable[JobOutcome],
                axes: Sequence[str] = _SLICE_AXES
                ) -> list[tuple[str, list[JobOutcome]]]:
    """Partition outcomes into per-table slices by the axes that vary.

    A Figure-7 table labels rows only by approach, so a mixed cache
    (several errors, imputers, row counts …) would render duplicate
    indistinguishable rows in one table.  This returns ``(label,
    outcomes)`` slices — one per distinct combination of the *varying*
    axes, in first-seen order, with the label naming just those axes
    (``"error=missing imputer=knn"``; ``""`` when nothing varies) —
    so each slice renders as one unambiguous table.
    """
    outcomes = list(outcomes)
    seen: dict[str, list] = {axis: [] for axis in axes}
    for outcome in outcomes:
        for axis in axes:
            value = _axis_value(outcome.job, axis)
            if value not in seen[axis]:
                seen[axis].append(value)
    varying = [axis for axis in axes if len(seen[axis]) > 1]
    if not varying:
        return [("", outcomes)]
    slices: dict[tuple, list[JobOutcome]] = {}
    for outcome in outcomes:
        key = tuple(_axis_value(outcome.job, axis) for axis in varying)
        slices.setdefault(key, []).append(outcome)
    return [(" ".join(f"{axis}={'none' if value is None else value}"
                      for axis, value in zip(varying, key)), cells)
            for key, cells in slices.items()]


def outcome_records(outcomes: Iterable[JobOutcome]) -> list[dict]:
    """Flatten successful outcomes to JSON/CSV-ready records.

    One record per cell (seeds are *not* aggregated): every job axis,
    every ``EvaluationResult`` metric field, the stage, the execution
    provenance (``attempts`` consumed and whether the cell was
    ``retried`` — cache hits report the zero/false resting values),
    and the raw / audit values under ``raw.<key>`` columns.
    """
    records = []
    for outcome in outcomes:
        if not outcome.ok:
            continue
        record = {axis: _axis_value(outcome.job, axis)
                  for axis in _JOB_AXES}
        record["stage"] = outcome.result.stage
        record["attempts"] = len(outcome.attempts)
        record["retried"] = outcome.retried
        record.update({name: getattr(outcome.result, name)
                       for name in _METRIC_FIELDS})
        record.update({f"raw.{key}": value
                       for key, value in outcome.result.raw.items()})
        records.append(record)
    return records


def export_json(outcomes: Iterable[JobOutcome], path: str | Path) -> Path:
    """Write the flattened records as a JSON array; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(outcome_records(outcomes), indent=2,
                               sort_keys=True))
    return path


def export_csv(outcomes: Iterable[JobOutcome], path: str | Path) -> Path:
    """Write the flattened records as CSV; returns the path.

    Columns are the union over all records — job axes first, then
    stage and the metric fields, then the raw keys sorted — so sparse
    audit metrics appear as empty cells rather than ragged rows.
    """
    records = outcome_records(outcomes)
    raw_columns = sorted({column for record in records
                          for column in record
                          if column.startswith("raw.")})
    columns = [*_JOB_AXES, "stage", "attempts", "retried",
               *_METRIC_FIELDS, *raw_columns]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns,
                                restval="")
        writer.writeheader()
        writer.writerows(records)
    return path


def format_pivot_table(table: Mapping[object, Mapping[object, float]],
                       index: str, columns: str, value: str) -> str:
    """Render a :func:`pivot` result as a fixed-width text table."""
    def label(axis: str, key) -> str:
        if key is None:
            return "LR" if axis == "approach" else "-"
        return str(key)

    column_keys: list[object] = []
    for cells in table.values():
        for key in cells:
            if key not in column_keys:
                column_keys.append(key)
    rows = [(label(index, key), cells) for key, cells in table.items()]
    name_width = max([len(name) for name, _ in rows] + [len(index), 8])
    headers = [label(columns, key) for key in column_keys]
    width = max([len(h) for h in headers] + [9])
    lines = [f"{value} by {index} × {columns}",
             f"{index:<{name_width}s} " + " ".join(
                 f"{h:>{width}s}" for h in headers),
             "-" * (name_width + (width + 1) * len(headers))]
    for name, cells in rows:
        rendered = " ".join(
            f"{cells[key]:>{width}.3f}" if key in cells
            else f"{'--':>{width}s}" for key in column_keys)
        lines.append(f"{name:<{name_width}s} {rendered}")
    return "\n".join(lines)
