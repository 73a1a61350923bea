"""Causal substrate: DAGs, structural causal models, effect estimation
(TE/NDE/NIE), counterfactual inference, path-specific effects, and
graphical identification."""

from .counterfactual import CounterfactualSCM, DiscreteCPT, NoiseAssignment
from .discovery import g_test, learn_dataset_graph, learn_graph
from .effects import Effects, interventional_effects, observational_effects
from .graph import CausalGraph
from .identification import (Identification, backdoor_estimate,
                             backdoor_sets, frontdoor_estimate,
                             frontdoor_sets, identify_effect, instruments,
                             interventional_distribution, is_backdoor_set,
                             is_frontdoor_set)
from .pse import (PathSpecificEffect, active_edges_for_direct,
                  active_edges_for_indirect, edges_of_paths,
                  path_specific_effect, pse_decomposition)
from .scm import Mechanism, SizedRNG, StructuralCausalModel

__all__ = [
    "CausalGraph", "StructuralCausalModel", "Mechanism", "SizedRNG",
    "Effects", "interventional_effects", "observational_effects",
    "g_test", "learn_graph", "learn_dataset_graph",
    "DiscreteCPT", "CounterfactualSCM", "NoiseAssignment",
    "PathSpecificEffect", "edges_of_paths", "active_edges_for_direct",
    "active_edges_for_indirect", "path_specific_effect",
    "pse_decomposition",
    "Identification", "is_backdoor_set", "backdoor_sets",
    "is_frontdoor_set", "frontdoor_sets", "instruments", "identify_effect",
    "backdoor_estimate", "frontdoor_estimate",
    "interventional_distribution",
]
