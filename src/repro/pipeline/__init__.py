"""Experiment pipeline: uniform fit/evaluate flow, report formatting,
result (de)serialisation, stage composition, the rung-3 counterfactual
audit, and the Section 5 guidelines advisor."""

from .composition import ChainedPreprocessor, ComposedPipeline
from .counterfactual_eval import (CounterfactualAudit,
                                  evaluate_counterfactual)
from .experiment import (EvaluationResult, FairPipeline, evaluate_pipeline,
                         result_from_dict, result_to_dict, run_experiment)
from .guidelines import (ApplicationProfile, Recommendation, StageScore,
                         recommend)
from .report import (CORRECTNESS_COLUMNS, FAIRNESS_COLUMNS,
                     format_delta_table, format_results_table,
                     format_runtime_table)

__all__ = [
    "FairPipeline", "EvaluationResult", "evaluate_pipeline",
    "run_experiment", "format_results_table", "format_runtime_table",
    "format_delta_table", "CORRECTNESS_COLUMNS", "FAIRNESS_COLUMNS",
    "ApplicationProfile", "Recommendation", "StageScore", "recommend",
    "result_to_dict", "result_from_dict",
    "ChainedPreprocessor", "ComposedPipeline",
    "CounterfactualAudit", "evaluate_counterfactual",
]
