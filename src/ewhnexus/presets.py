"""The benchmark's two forms of ``LoadedConfig.econ_for``; they exist only because
the benchmark harness calls them.  Everything else calls ``cfg.econ_for``."""

from __future__ import annotations

from typing import Callable

from .config import LoadedConfig
from .conversion import ProductSpec
from .quantities import EconParams, PlantSpec


def econ_for_cell(cfg: LoadedConfig, plant: PlantSpec,
                  product: ProductSpec | None = None, beta: float = 0.0) -> EconParams:
    """``cfg.econ_for(plant)``; ``product`` and ``beta`` are accepted and ignored."""
    return cfg.econ_for(plant)


def resolver(cfg: LoadedConfig) -> Callable[[PlantSpec], EconParams]:
    """A plant's ``econ_for_cell``, which a scenario sweep calls once per plant."""
    return lambda plant: econ_for_cell(cfg, plant)
