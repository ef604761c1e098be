"""The fit engine's settings.

They live apart from ``fitting``, which re-exports them, so that ``fit``
can check its options before it loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FitConfig:
    """Shape draws per model in the initial search and the seed of their stream.

    Refinement has no settings here; its stopping rules are ``fitting``'s
    ``REFINE_*`` constants.
    """

    search_budget: int = 256
    rng_seed: int = 0

    def __post_init__(self):
        if self.search_budget < 1:
            raise ValueError("search_budget must be at least 1")
