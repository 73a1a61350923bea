"""Extension: counterfactual (rung-3) audit across stages.

The paper stops at interventional metrics; this bench climbs to the
counterfactual rung and asks which stage best removes *individual*
counterfactual discrimination: for the baseline and one approach per
stage on COMPAS it reports the mean counterfactual prediction gap, the
fraction of individuals whose prediction flips under ``do(race)``, the
Ctf-DE/IE decomposition, and the counterfactual FPR gap.

Shape under test: S-discarding approaches (Feld) drive the
counterfactual direct effect and flip rate to ~0; post-processing —
which conditions its adjustment on S — *retains* individual
counterfactual discrimination even while satisfying its group notion,
the rung-3 version of the paper's "post-processing violates ID"
finding.  The bench asserts it: Feld's flip fraction and |Ctf-DE| are
each at most half of LR's, and KamKar's flip fraction is above Feld's.

Runs through the sweep engine: one grid with the counterfactual audit
on every cell, read back from the ``cf_*``/``ctf_*`` values.
"""

from common import CAUSAL_SAMPLES, SIZES, emit, once, run_grid
from repro.engine import ScenarioGrid

APPROACHES = (None, "Feld-dp", "KamCal-dp", "Zafar-dp-fair", "KamKar-dp")


def run_audit() -> tuple[str, dict]:
    grid = ScenarioGrid(datasets=["compas"], approaches=APPROACHES,
                        rows=[SIZES["compas"]],
                        causal_samples=CAUSAL_SAMPLES,
                        audit="counterfactual",
                        audit_params={"n_samples": 8000, "n_particles": 80,
                                      "max_rows": 40})
    lines = ["Counterfactual audit (COMPAS): rung-3 metrics per stage",
             f"{'approach':<14} {'mean gap':>9} {'flip %':>7} "
             f"{'Ctf-DE':>8} {'Ctf-IE':>8} {'cf-FPR gap':>11}"]
    raws = {}
    for r in run_grid(grid).results:
        raw = raws[r.approach] = r.raw
        lines.append(
            f"{r.approach:<14} {raw['cf_mean_gap']:>9.3f} "
            f"{raw['cf_unfair_fraction']:>7.1%} "
            f"{raw['ctf_de']:>+8.3f} {raw['ctf_ie']:>+8.3f} "
            f"{raw['cf_fpr_gap']:>+11.3f}")
    return "\n".join(lines), raws


def test_ablation_counterfactual(benchmark):
    text, raws = once(benchmark, run_audit)
    emit("ablation_counterfactual", text)
    lr, feld, kamkar = raws["LR"], raws["Feld"], raws["KamKar"]
    # Feld discards S: flips and the counterfactual direct effect fall
    # to at most half the baseline's.
    assert feld["cf_unfair_fraction"] <= lr["cf_unfair_fraction"] / 2
    assert abs(feld["ctf_de"]) <= abs(lr["ctf_de"]) / 2
    # Post-processing conditions on S and keeps individual
    # counterfactual discrimination that Feld removes.
    assert kamkar["cf_unfair_fraction"] > feld["cf_unfair_fraction"]
