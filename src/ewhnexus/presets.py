"""Turning a loaded config plus its calibration block into per-cell parameters.

Three calibration rules bridge the gap between the printed cost forms and a
usable parameter set:

* a fixed capture-plant capital total is spread over each plant's daily
  carbon mass (strong scale economy in the per-ton capital cost),
* the water-pipe capital product (capacity times unit cost) is pinned to one
  per-meter pipe cost, so the unit cost is the pipe cost divided by the
  design flow of the scenario at hand,
* pipe friction coefficients are fitted per plant, standing in for the pipe
  diameter each design flow would actually get.

None of these change a formula; they only decide the numbers fed into it.
A cell's parameters are the config's, already validated, with the calibrated
fields replaced; only those fields are checked again.
"""

from __future__ import annotations

from .analysis import EconResolver
from .config import LoadedConfig, load_config
from .conversion import ProductSpec, _reuse_rates
from .quantities import EconParams, PlantSpec, check_beta


def econ_for_cell(cfg: LoadedConfig, plant: PlantSpec,
                  product: ProductSpec | None = None, beta: float = 0.0) -> EconParams:
    """Economic parameters for one scenario cell with calibration applied."""
    econ = cfg.econ
    cal = cfg.calibration
    updates: dict = {}

    if cal.ccs_capital_total is not None:
        updates["c_ccs"] = cal.ccs_capital_total / (plant.cbar * 24.0)

    if plant.name in cal.r_w_per_100km:
        updates["r_w_per_100km"] = cal.r_w_per_100km[plant.name]

    if cal.pipe_cost_per_m is not None and product is not None and beta > 0:
        check_beta(beta)
        updates["c_tw"] = cal.pipe_cost_per_m / _reuse_rates(product, plant.cbar, beta)[1]

    return econ.replace_costs(**updates) if updates else econ


def resolver(cfg: LoadedConfig) -> EconResolver:
    """Cell-wise parameter resolver for scenario sweeps."""
    def resolve(plant, product, beta):
        return econ_for_cell(cfg, plant, product, beta)
    return resolve


def paper_2024() -> LoadedConfig:
    """The shipped calibrated preset (see presets/paper-2024.yaml)."""
    return load_config("paper-2024")
