"""Turning a loaded config plus its calibration block into per-plant parameters.

Two calibration rules bridge the gap between the printed cost forms and a
usable parameter set:

* a fixed capture-plant capital total is spread over each plant's daily
  carbon mass (strong scale economy in the per-ton capital cost),
* pipe friction coefficients are fitted per plant, standing in for the pipe
  diameter each design flow would actually get.

Neither changes a formula; they only decide the numbers fed into it.  Both
depend on the plant alone, so a sweep calibrates each plant once.  A
plant's parameters are the config's, already validated, with the calibrated
fields replaced; only those fields are checked again.
"""

from __future__ import annotations

from .analysis import EconResolver
from .config import LoadedConfig, load_config
from .conversion import ProductSpec
from .quantities import EconParams, PlantSpec


def econ_for_cell(cfg: LoadedConfig, plant: PlantSpec,
                  product: ProductSpec | None = None, beta: float = 0.0) -> EconParams:
    """Economic parameters for one scenario cell with calibration applied.

    Only the plant affects the result; a caller may name the cell's product
    and reuse fraction as well.
    """
    econ = cfg.econ
    cal = cfg.calibration
    updates: dict = {}

    if cal.ccs_capital_total is not None:
        updates["c_ccs"] = cal.ccs_capital_total / (plant.cbar * 24.0)

    if plant.name in cal.r_w_per_100km:
        updates["r_w_per_100km"] = cal.r_w_per_100km[plant.name]

    return econ.replace_costs(**updates) if updates else econ


def resolver(cfg: LoadedConfig) -> EconResolver:
    """A plant's ``econ_for_cell``, which a scenario sweep calls once per plant."""
    return lambda plant: econ_for_cell(cfg, plant)


def paper_2024() -> LoadedConfig:
    """The shipped calibrated preset (see presets/paper-2024.yaml)."""
    return load_config("paper-2024")
