"""Extension approaches vs their closest evaluated counterparts.

The three extension variants each mirror a mechanism family from the
paper's evaluated set:

* CaldersVerwer (massaging, label flips)  ↔  KamCal (reweighed rows);
* Kamishima (MI regulariser)              ↔  Zafar-dp (covariance
  constraint);
* OmniFair (declarative thresholds)       ↔  KamKar (reject-option).

This bench runs each pair on COMPAS, as one engine grid, so the
paper's Figure-5 taxonomy can be extended with measured placements:
the extension approaches should land in the same accuracy/fairness
region as their family, with the mechanism differences visible in the
secondary metrics (e.g. massaging keeps more recall than resampling;
thresholding is deterministic where the reject-option is randomised).
"""

from common import CAUSAL_SAMPLES, SIZES, emit, once, run_grid
from repro.engine import ScenarioGrid

PAIRS = (
    ("KamCal-dp", "CaldersVerwer-dp"),
    ("Zafar-dp-fair", "Kamishima-pr"),
    ("KamKar-dp", "OmniFair-dp"),
)


def _row(label: str, r) -> str:
    return (f"{label:<18} {r.accuracy:>6.3f} {r.recall:>7.3f} "
            f"{r.di_star:>6.3f} {r.tprb:>9.3f} {r.id:>6.3f}")


def run_pairs() -> str:
    grid = ScenarioGrid(datasets=["compas"],
                        approaches=[None, *(n for p in PAIRS for n in p)],
                        rows=[SIZES["compas"]],
                        causal_samples=CAUSAL_SAMPLES)
    results = {o.job.approach: o.result for o in run_grid(grid).outcomes}
    lines = ["Extension approaches vs evaluated counterparts (COMPAS)",
             f"{'approach':<18} {'acc':>6} {'recall':>7} {'DI*':>6} "
             f"{'1-|TPRB|':>9} {'1-ID':>6}",
             _row("LR baseline", results[None])]
    for pair in PAIRS:
        lines += [_row(name, results[name]) for name in pair]
        lines.append("")
    return "\n".join(lines).rstrip()


def test_ablation_extension_approaches(benchmark):
    emit("ablation_extension_approaches", once(benchmark, run_pairs))
