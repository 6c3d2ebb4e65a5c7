"""Per-plant parameters of a loaded config, and the shipped preset.

The calibration rules (capture capital spread over each plant's daily carbon
mass, per-plant pipe friction) live on ``config.Calibration``.  A loaded
config applies them to each of its plants once, when it is built; this
module hands out those parameters.
"""

from __future__ import annotations

from .analysis import EconResolver
from .config import LoadedConfig, load_config
from .conversion import ProductSpec
from .quantities import EconParams, PlantSpec


def econ_for_cell(cfg: LoadedConfig, plant: PlantSpec,
                  product: ProductSpec | None = None, beta: float = 0.0) -> EconParams:
    """The calibrated economic parameters of ``plant`` under ``cfg``.

    A plant of ``cfg.plants`` (the same object) gets the parameters the
    config built for it; any other plant is calibrated on the spot, and a
    DomainError says why its parameters are invalid.  ``product`` and
    ``beta`` are accepted and ignored, for callers of the four-argument form.
    """
    for configured, econ in zip(cfg.plants, cfg.plant_econs):
        if configured is plant:
            return econ
    return cfg.calibration.apply(cfg.econ, plant)


def resolver(cfg: LoadedConfig) -> EconResolver:
    """A plant's ``econ_for_cell``, which a scenario sweep calls once per plant."""
    return lambda plant: econ_for_cell(cfg, plant)


def paper_2024() -> LoadedConfig:
    """The shipped calibrated preset (see presets/paper-2024.yaml)."""
    return load_config("paper-2024")
