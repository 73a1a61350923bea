"""Figure 8 (and Appendix Figure 24): efficiency and scalability.

Two sweeps on Adult, as in the paper: runtime overhead (fit time minus
the plain-LR fit time) as (a-c) the number of data points grows and
(d-f) the number of attributes grows.  One runtime table per stage is
printed; the log-scale "who is slowest" ordering is the shape under
test.

Runs through the sweep engine: each sweep is a declarative grid (rows
or feature-count axis × approaches + baseline) and the overhead
subtraction is the engine's ``overhead_series`` pivot over the
recorded per-cell fit times.  Causal sampling is dialed down because
only fit time feeds the figure.
"""

from common import FULL, emit, once, run_grid
from repro.api import SweepSpec
from repro.engine import overhead_series
from repro.fairness import Stage
from repro.pipeline import format_runtime_table
from repro.registry import APPROACHES, parse_spec

ROW_SWEEP = ([1000, 5000, 10000, 20000, 31000] if FULL
             else [500, 1000, 2000, 4000])
ATTR_SWEEP = [2, 4, 6, 8, 9]

#: Monte-Carlo samples for the (unreported) causal metrics of each
#: cell — kept tiny so the sweep time is the fit time.
EVAL_SAMPLES = 200

#: Representative per-stage selections (all variants when FULL).
SWEEP_APPROACHES = APPROACHES.keys() if FULL else [
    "KamCal-dp", "Feld-dp", "Calmon-dp", "ZhaWu-psf", "Salimi-jf-maxsat",
    "Salimi-jf-matfac",
    "Zafar-dp-fair", "ZhaLe-eo", "Kearns-pe", "Celis-pp", "Thomas-dp",
    "KamKar-dp", "Hardt-eo", "Pleiss-eop",
]

#: The engine's protocol fits on the 70% train split, so each sweep
#: point loads enough rows that the *training* size equals the figure's
#: label (the paper's axis is training-set size).
TEST_FRACTION = 0.3


def _loaded_size(train_size: int) -> int:
    return round(train_size / (1.0 - TEST_FRACTION))


def sweep_rows() -> dict[str, dict[int, float]]:
    loaded = {_loaded_size(n): n for n in ROW_SWEEP}
    spec = SweepSpec(
        datasets=["adult"],
        approaches=[None, *SWEEP_APPROACHES],
        rows=list(loaded),
        causal_samples=EVAL_SAMPLES,
        test_fraction=TEST_FRACTION,
        seeds=[0],
    )
    series = overhead_series(run_grid(spec).outcomes,
                             sweep="rows")
    return {approach: {loaded[rows]: seconds
                       for rows, seconds in points.items()}
            for approach, points in series.items()}


def sweep_attributes() -> dict[str, dict[int, float]]:
    spec = SweepSpec(
        datasets=["adult"],
        approaches=[None, *SWEEP_APPROACHES],
        rows=[_loaded_size(ROW_SWEEP[-1])],
        feature_counts=ATTR_SWEEP,
        causal_samples=EVAL_SAMPLES,
        test_fraction=TEST_FRACTION,
        seeds=[0],
    )
    return overhead_series(run_grid(spec).outcomes,
                           sweep="n_features")


def _stage_tables(series: dict[str, dict[int, float]], sweep_label: str,
                  figure: str) -> str:
    blocks = []
    for stage in (Stage.PRE, Stage.IN, Stage.POST):
        rows = [(name, values) for name, values in series.items()
                if APPROACHES.get(parse_spec(name)[0])
                .metadata["stage"] is stage]
        if rows:
            blocks.append(format_runtime_table(
                rows, sweep_label=sweep_label,
                title=f"{figure} [{stage.value}] overhead seconds over LR"))
    return "\n\n".join(blocks)


def test_fig08_rows(benchmark):
    series = once(benchmark, sweep_rows)
    emit("fig08_rows", _stage_tables(series, "#rows", "Figure 8(a-c)"))


def test_fig08_attributes(benchmark):
    series = once(benchmark, sweep_attributes)
    emit("fig08_attrs", _stage_tables(series, "#attrs", "Figure 8(d-f)"))
