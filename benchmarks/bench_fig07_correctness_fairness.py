"""Figure 7: correctness and fairness of the 18 main variants on
Adult, COMPAS, and German (LR downstream, 70/30 split).

Regenerates one bar-group table per dataset: the four correctness
metrics and the five headline normalised fairness metrics (plus
NDE/NIE) for every approach, with the LR baseline as the first row.

Runs through the declarative facade: the (dataset × 19 variants) grid
is one :class:`repro.api.SweepSpec`, executed with the shared result
cache (re-runs refit nothing), and pivoted back into the paper's
table.  ``REPRO_JOBS=N`` fans the grid out over N worker processes.
"""

import pytest

from common import CAUSAL_SAMPLES, SIZES, emit, once, run_grid
from repro.api import SweepSpec
from repro.engine import grid_table
from repro.registry import APPROACHES


def run_dataset(dataset_name: str) -> str:
    spec = SweepSpec(
        datasets=[dataset_name],
        approaches=[None, *APPROACHES.keys(group="main")],
        rows=[SIZES[dataset_name]],
        causal_samples=CAUSAL_SAMPLES,
        seeds=[0],
    )
    report = run_grid(spec)
    return grid_table(
        report.outcomes, dataset=dataset_name,
        title=f"Figure 7 ({dataset_name}): correctness & "
              "fairness, 18 variants + LR baseline")


@pytest.mark.parametrize("dataset_name", ["adult", "compas", "german"])
def test_fig07(benchmark, dataset_name):
    table = once(benchmark, lambda: run_dataset(dataset_name))
    emit(f"fig07_{dataset_name}", table)
