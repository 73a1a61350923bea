"""Fair classification approaches: the paper's 13 approaches and 21
evaluated variants, grouped by fairness-enforcing stage.

Variants are registered in :data:`repro.registry.APPROACHES`."""

from .base import (FairApproach, InProcessor, Notion, PostProcessor,
                   Preprocessor, Stage, group_masks)
from .registry import approaches_by_stage, make_approach

__all__ = [
    "Stage", "Notion", "FairApproach", "Preprocessor", "InProcessor",
    "PostProcessor", "group_masks",
    "make_approach", "approaches_by_stage",
]
