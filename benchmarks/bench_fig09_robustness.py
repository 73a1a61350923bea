"""Figure 9 (and Appendix Figures 19/20): robustness to data errors.

COMPAS training data is corrupted with the paper's three recipes (T1
swapped attributes, T2 scaled+noisy attributes, T3 missing-and-imputed
S/Y), disproportionately hitting the unprivileged group (50% vs 10%).
For every variant the bench prints the corrupted-vs-clean deltas of
accuracy/F1 and the fairness metrics — the shape under test is that
post-processing moves least under T1/T2 and that error-aware notions
degrade more than demography-aware ones.

Runs through the sweep engine: each recipe is one grid (clean and
corrupted × the baseline and the 18 main variants), and the deltas are
taken between its clean and corrupted cells.  The clean cells are
shared by all three recipes' grids, so the bench cache fits them once.
"""

import pytest

from common import CAUSAL_SAMPLES, SIZES, emit, once, run_grid
from repro.engine import ScenarioGrid
from repro.pipeline import format_delta_table
from repro.registry import APPROACHES

COLUMNS = ["accuracy", "f1", "di_star", "tprb", "tnrb", "te"]


def run_recipe(recipe: str) -> str:
    grid = ScenarioGrid(datasets=["compas"],
                        approaches=[None, *APPROACHES.keys(group="main")],
                        errors=[None, recipe], rows=[SIZES["compas"]],
                        causal_samples=CAUSAL_SAMPLES)
    outcomes = run_grid(grid).outcomes
    return format_delta_table(
        [o.result for o in outcomes if o.job.error is None],
        [o.result for o in outcomes if o.job.error is not None],
        columns=COLUMNS,
        title=f"Figure 9 ({recipe.upper()}): corrupted-minus-clean deltas "
              "on COMPAS")


@pytest.mark.parametrize("recipe", ["t1", "t2", "t3"])
def test_fig09(benchmark, recipe):
    table = once(benchmark, lambda: run_recipe(recipe))
    emit(f"fig09_{recipe}", table)
