"""Approach lookup helpers over :mod:`repro.registry`.

Every variant lives in :data:`repro.registry.APPROACHES` with declared
defaults and an explicit stochastic flag; select a group's keys with
``APPROACHES.keys(group="main")`` (``"additional"``, ``"extension"``).
:func:`make_approach` and :func:`approaches_by_stage` delegate to the
registry.
"""

from __future__ import annotations

from .base import FairApproach, Stage

__all__ = ["approaches_by_stage", "make_approach"]


def make_approach(name: str, seed: int = 0, **params) -> FairApproach:
    """Instantiate a variant by its paper name (registry-backed).

    The seed reaches the factory only for stochastic variants; extra
    keyword parameters override the registry defaults.
    """
    from ..registry import APPROACHES
    return APPROACHES.build(name, seed=seed, **params)


def approaches_by_stage(stage: Stage,
                        include_additional: bool = False) -> list[str]:
    """Names of all registered variants operating at a given stage."""
    from ..registry import APPROACHES
    keys = (APPROACHES.keys() if include_additional
            else APPROACHES.keys(group="main"))
    return [key for key in keys
            if APPROACHES.get(key).metadata["stage"] is stage]
