"""Fair classification approaches: the paper's 13 approaches and 21
evaluated variants, plus three extension variants, grouped by
fairness-enforcing stage.

Variants are registered in, and built through,
:data:`repro.registry.APPROACHES`: ``APPROACHES.build("Hardt-eo")``;
select a group's keys with ``APPROACHES.keys(group="main")``
(``"additional"``, ``"extension"``) or a stage's with
``APPROACHES.keys(stage=Stage.PRE)``."""

from .base import (FairApproach, InProcessor, Notion, PostProcessor,
                   Preprocessor, Stage, group_masks)

__all__ = [
    "Stage", "Notion", "FairApproach", "Preprocessor", "InProcessor",
    "PostProcessor", "group_masks",
]
