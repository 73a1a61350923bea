"""repro — a from-scratch reproduction of "Through the Data Management
Lens: Experimental Analysis and Evaluation of Fair Classification"
(Islam, Fariha, Meliou, Salimi; SIGMOD 2022).

Public API tour:

* :mod:`repro.registry` — the unified component registry: datasets,
  models, fair approaches, error injectors, imputers, and metrics,
  all addressable by string key + parameters.  It is the one lookup
  from a name to a component (``APPROACHES.build("Hardt-eo")``,
  ``DATASETS.build("german", n=400, seed=1)``).
* :mod:`repro.api` — declarative experiment specs and JSON/YAML
  scenario configs (:class:`~repro.api.ExperimentSpec`,
  :class:`~repro.api.SweepSpec`).
* :mod:`repro.datasets` — synthetic Adult/COMPAS/German generators
  (SCM-based), the tabular substrate, splits, and encoders.
* :mod:`repro.models` — from-scratch LR / SVM / kNN / RF / MLP / NB /
  GB.
* :mod:`repro.causal` — causal graphs, SCMs, TE/NDE/NIE estimation.
* :mod:`repro.metrics` — correctness + fairness metrics of the paper.
* :mod:`repro.fairness` — the 24 fair-classification variants: the
  paper's 21 evaluated ones and three extensions.
* :mod:`repro.errors` — corruption recipes (the paper's T1–T3, plus
  T4–T6 and ``missing``) and imputers.
* :mod:`repro.pipeline` — uniform experiment runner and reports.
* :mod:`repro.engine` — declarative scenario grids, parallel sweeps,
  and content-addressed result caching.
* :mod:`repro.obs` — telemetry: spans, counters, trace export
  (``repro sweep --trace``), and environment diagnostics
  (``repro doctor``).
* :mod:`repro.artifacts` — versioned serving bundles: fitted
  components serialized next to their cache cell (``repro pack`` /
  ``repro inspect``).
* :mod:`repro.serve` — online audit serving over a bundle
  (``repro serve``, or the in-process
  :class:`~repro.serve.AuditService`).
"""

from . import obs, registry
from .api import ExperimentSpec, SweepSpec, load_config, run_spec, sweep
from .datasets import load_adult, load_compas, load_german
from .engine import Job, ResultCache, ScenarioGrid, run_sweep
from .pipeline import (EvaluationResult, FairPipeline, evaluate_pipeline,
                       format_results_table, run_experiment)

__version__ = "1.1.0"

__all__ = [
    "obs", "registry",
    "ExperimentSpec", "SweepSpec", "load_config", "run_spec", "sweep",
    "load_adult", "load_compas", "load_german",
    "FairPipeline", "EvaluationResult", "evaluate_pipeline",
    "run_experiment", "format_results_table",
    "Job", "ScenarioGrid", "ResultCache", "run_sweep",
    "__version__",
]

