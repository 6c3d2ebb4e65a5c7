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
fields replaced; only those fields are checked again.  The first two rules
depend on the plant alone: a sweep's resolver applies them once per plant,
and then replaces only the pipe unit cost of each reuse cell.
"""

from __future__ import annotations

from .analysis import EconResolver
from .config import LoadedConfig, load_config
from .conversion import ProductSpec, _reuse_rates
from .quantities import DomainError, EconParams, PlantSpec, check_beta


def _pipe_unit_cost(cfg: LoadedConfig, plant: PlantSpec,
                    product: ProductSpec | None, beta: float) -> float | None:
    """Calibrated water-pipe unit cost ``c_tw`` of a reuse cell, or None if the rule is off."""
    pipe_cost_per_m = cfg.calibration.pipe_cost_per_m
    if pipe_cost_per_m is None or product is None or not beta > 0:
        return None
    check_beta(beta)
    return pipe_cost_per_m / _reuse_rates(product, plant.cbar, beta)[1]


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

    c_tw = _pipe_unit_cost(cfg, plant, product, beta)
    if c_tw is not None:
        updates["c_tw"] = c_tw

    return econ.replace_costs(**updates) if updates else econ


def resolver(cfg: LoadedConfig) -> EconResolver:
    """Cell-wise ``econ_for_cell`` for scenario sweeps, calibrating each plant object once."""
    # keyed by identity, not name; holding the plant keeps its id from being reused
    per_plant: dict[int, tuple[PlantSpec, EconParams]] = {}

    def resolve(plant, product, beta):
        hit = per_plant.get(id(plant))
        if hit is None:
            try:
                hit = per_plant[id(plant)] = (plant, econ_for_cell(cfg, plant))
            except DomainError:   # raise what the whole cell's calibration raises first
                return econ_for_cell(cfg, plant, product, beta)
        c_tw = _pipe_unit_cost(cfg, plant, product, beta)
        return hit[1] if c_tw is None else hit[1].replace_costs(c_tw=c_tw)
    return resolve


def paper_2024() -> LoadedConfig:
    """The shipped calibrated preset (see presets/paper-2024.yaml)."""
    return load_config("paper-2024")
