"""Ablation: how much tradeoff control does each stage really offer?

Section 4.3's takeaway is that pre-/in-processing "offer more
flexibility in controlling correctness-fairness tradeoffs" than
post-processing.  This bench makes that claim measurable by sweeping
each approach's own control knob and printing the resulting
accuracy-vs-DI* frontier:

* Zafar-dp (in): the covariance bound c (tight → fair, loose → LR);
* Feld (pre): the repair level λ;
* Calmon (pre): the distortion cap;
* KamKar (post): the parity target — whose frontier is short, because
  the reject-option mechanism saturates.

A second ablation contrasts the two Salimi repair back-ends (MaxSAT vs
MatFac rounding) head-to-head.

Both run through the sweep engine: every knob setting is an approach
parameter (``Feld-dp(lam=0.5)``), so each frontier point is one cell.
"""

from common import CAUSAL_SAMPLES, SIZES, emit, once, run_grid
from repro.engine import ScenarioGrid
from repro.registry import format_spec

#: (heading, approach, parameter, printed knob name, settings).
FRONTIERS = (
    ("Zafar-dp-fair (in): covariance bound c", "Zafar-dp-fair",
     "covariance_bound", "c", [1e-4, 1e-3, 1e-2, 1e-1]),
    ("Feld (pre): repair level λ", "Feld-dp", "lam", "λ",
     [0.0, 0.5, 0.8, 1.0]),
    ("Calmon (pre): distortion cap (max flip fraction)", "Calmon-dp",
     "max_flip", "cap", [0.05, 0.2, 0.6, 1.0]),
    ("KamKar (post): parity target", "KamKar-dp", "parity_target",
     "target", [0.2, 0.1, 0.05, 0.01]),
)

#: The Salimi back-ends, by registry key and repair class.
SALIMI = (("Salimi-jf-maxsat", "SalimiMaxSAT"),
          ("Salimi-jf-matfac", "SalimiMatFac"))


def run_tradeoff() -> str:
    grid = ScenarioGrid(datasets=["adult"],
                        approaches=[format_spec(approach, {param: value})
                                    for _, approach, param, _, values
                                    in FRONTIERS for value in values],
                        rows=[SIZES["adult"]],
                        causal_samples=CAUSAL_SAMPLES)
    results = iter(run_grid(grid).results)  # grid order: FRONTIERS order
    lines = ["Ablation: accuracy-vs-DI* frontiers per control knob "
             "(Adult)"]
    for heading, _, _, knob, values in FRONTIERS:
        lines.append(heading)
        for value in values:
            r = next(results)
            lines.append(f"  {knob}={value:<8g} acc={r.accuracy:.3f} "
                         f"DI*={r.di_star:.3f}")
    return "\n".join(lines)


def run_salimi_backends() -> str:
    grid = ScenarioGrid(datasets=["compas"],
                        approaches=[key for key, _ in SALIMI],
                        rows=[SIZES["compas"]],
                        causal_samples=CAUSAL_SAMPLES)
    lines = ["Ablation: Salimi repair back-end (MaxSAT vs MatFac "
             "rounding), COMPAS"]
    for (_, name), r in zip(SALIMI, run_grid(grid).results):
        lines.append(f"  {name:13s} acc={r.accuracy:.3f} "
                     f"DI*={r.di_star:.3f} 1-|TE|={r.te:.3f} "
                     f"fit={r.fit_seconds:.2f}s")
    return "\n".join(lines)


def test_ablation_tradeoff(benchmark):
    emit("ablation_tradeoff", once(benchmark, run_tradeoff))


def test_ablation_salimi_backend(benchmark):
    emit("ablation_salimi", once(benchmark, run_salimi_backends))
