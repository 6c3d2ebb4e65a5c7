"""The four-argument form of ``LoadedConfig.econ_for``, and the shipped preset."""

from __future__ import annotations

from .analysis import EconResolver
from .config import LoadedConfig, load_config
from .conversion import ProductSpec
from .quantities import EconParams, PlantSpec


def econ_for_cell(cfg: LoadedConfig, plant: PlantSpec,
                  product: ProductSpec | None = None, beta: float = 0.0) -> EconParams:
    """``cfg.econ_for(plant)``; ``product`` and ``beta`` are accepted and ignored."""
    return cfg.econ_for(plant)


def resolver(cfg: LoadedConfig) -> EconResolver:
    """A plant's ``econ_for_cell``, which a scenario sweep calls once per plant."""
    return lambda plant: econ_for_cell(cfg, plant)


def paper_2024() -> LoadedConfig:
    """The shipped calibrated preset (see presets/paper-2024.yaml)."""
    return load_config("paper-2024")
