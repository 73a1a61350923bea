"""Extension: robustness under error types beyond the paper's T1–T3.

Section 4.4 corrupts attributes and labels; this bench extends the
sweep to the rest of the data-quality taxonomy — label flipping (T4),
selection bias (T5), and outliers + duplicates (T6), all applied at
the paper's disproportionate 50%/10% group rates — and reports the
corrupted-minus-clean deltas for the baseline plus one approach per
stage.

Shape under test: the paper's headline conclusion (post-processing
moves least; demography-aware approaches cope better than error-aware
ones) should extend to label flips and duplication, while selection
bias — which changes the group mix itself — hurts the demography-aware
approaches most.

Runs through the sweep engine: each recipe is one clean-and-corrupted
grid, and the deltas are taken between its clean and corrupted cells.
"""

import pytest

from common import CAUSAL_SAMPLES, SIZES, emit, once, run_grid
from repro.engine import ScenarioGrid
from repro.pipeline import format_delta_table

APPROACHES = (None, "KamCal-dp", "Feld-dp", "Zafar-dp-fair", "ZhaLe-eo",
              "KamKar-dp", "Hardt-eo")
COLUMNS = ["accuracy", "f1", "di_star", "tprb", "tnrb"]


def run_recipe(recipe: str) -> str:
    grid = ScenarioGrid(datasets=["compas"], approaches=APPROACHES,
                        errors=[None, recipe], rows=[SIZES["compas"]],
                        causal_samples=CAUSAL_SAMPLES)
    outcomes = run_grid(grid).outcomes
    return format_delta_table(
        [o.result for o in outcomes if o.job.error is None],
        [o.result for o in outcomes if o.job.error is not None],
        columns=COLUMNS,
        title=f"Extended robustness ({recipe.upper()}): corrupted-minus-"
              "clean deltas on COMPAS")


@pytest.mark.parametrize("recipe", ["t4", "t5", "t6"])
def test_extended_errors(benchmark, recipe):
    table = once(benchmark, lambda: run_recipe(recipe))
    emit(f"ablation_errors_{recipe}", table)
