"""Techno-economic engine for retrofitting conventional power plants with
carbon capture plus water, wind-power and hydrogen sections.

The library answers four decision questions: the cheapest water supply, the
better fate for captured carbon (storage vs. chemical reuse), the best-value
chemical product, and the carbon-penalty rate that makes each option rational.
"""

from .quantities import (
    CostLedger, DomainError, EconParams, LedgerItem, PlantSpec, Quantity, TimeSeries, UnitError,
)
from .water import Desalination, NetworkTransfer, SolarSeawater
from .conversion import (
    BUILTIN_PRODUCTS, ETHANOL, METHANE, METHANOL, ProductSpec, nexus_rates,
)
from .economics import ScenarioConfig, ScenarioResult, total_daily_cost
from .analysis import (
    BreakevenQuery, NoCrossingError, ReuseAll, StoreAll, SweepGrid,
    breakeven_distance, penalty_threshold, scenario_sweep, transfer_cost_curve,
)
from .config import ConfigError, LoadedConfig, dump_config, load_config, paper_2024
from .presets import econ_for_cell, resolver

__all__ = [
    "BreakevenQuery", "BUILTIN_PRODUCTS", "ConfigError", "CostLedger", "Desalination",
    "DomainError", "EconParams", "ETHANOL", "LedgerItem", "LoadedConfig", "METHANE",
    "METHANOL", "NetworkTransfer", "NoCrossingError", "PlantSpec", "ProductSpec",
    "Quantity", "ReuseAll", "ScenarioConfig", "ScenarioResult", "SolarSeawater",
    "StoreAll", "SweepGrid", "TimeSeries", "UnitError", "breakeven_distance", "dump_config",
    "econ_for_cell", "load_config", "nexus_rates", "paper_2024", "penalty_threshold",
    "resolver", "scenario_sweep", "total_daily_cost", "transfer_cost_curve",
]

__version__ = "0.1.0"
