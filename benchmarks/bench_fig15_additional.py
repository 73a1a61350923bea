"""Appendix Figure 15: the three additional approaches (Madras-dp,
Agarwal-dp, Agarwal-eo) on Adult, COMPAS, and German, alongside the LR
baseline — same protocol as Figure 7, and like it one engine grid per
dataset."""

import pytest

from common import CAUSAL_SAMPLES, SIZES, emit, once, run_grid
from repro.engine import ScenarioGrid
from repro.pipeline import format_results_table
from repro.registry import APPROACHES


def run_dataset(dataset_name: str) -> str:
    grid = ScenarioGrid(
        datasets=[dataset_name],
        approaches=[None, *APPROACHES.keys(group="additional")],
        rows=[SIZES[dataset_name]], causal_samples=CAUSAL_SAMPLES)
    return format_results_table(
        run_grid(grid).results,
        title=f"Figure 15 ({dataset_name}): additional "
              "approaches + LR baseline")


@pytest.mark.parametrize("dataset_name", ["adult", "compas", "german"])
def test_fig15(benchmark, dataset_name):
    emit(f"fig15_{dataset_name}",
         once(benchmark, lambda: run_dataset(dataset_name)))
