"""Parameter-file ingestion, validation and round-trippable export.

Configs are plain YAML.  Every dimensioned value is written as a
``"value unit"`` string and is dimension-checked while loading; unknown keys
anywhere in the file are hard errors so typos cannot silently fall back to
defaults.  All validation problems are collected and reported in one pass;
nothing is computed from an invalid config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

import yaml

from . import water
from .conversion import BUILTIN_PRODUCTS, ProductSpec, builtin_product
from .quantities import EconParams, PlantSpec, Quantity, UnitError


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


#: packaged preset names -> resource file
PRESETS = {"paper-2024": "paper-2024.yaml"}


def parse_quantity(text: Any, expected_unit: str, path: str, errors: list[str]) -> float | None:
    """Parse ``"value unit"`` (or a bare number for dimensionless fields)."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        if expected_unit == "dimensionless":
            return float(text)
        errors.append(f"{path}: expected a '<value> {expected_unit}' string, got bare number {text!r}")
        return None
    if not isinstance(text, str):
        errors.append(f"{path}: expected a '<value> {expected_unit}' string, got {text!r}")
        return None
    parts = text.split(None, 1)
    if len(parts) != 2 and expected_unit != "dimensionless":
        errors.append(f"{path}: expected '<value> {expected_unit}', got {text!r}")
        return None
    raw, unit = (parts if len(parts) == 2 else (parts[0], "dimensionless"))
    try:
        value = float(raw)
    except ValueError:
        errors.append(f"{path}: {raw!r} is not a number")
        return None
    try:
        return Quantity(value, unit).value_in(expected_unit)
    except UnitError as exc:
        errors.append(f"{path}: {exc} (expected {expected_unit})")
        return None


@dataclass(frozen=True)
class Calibration:
    """Fitted, non-published cost closures used by a preset.

    ``ccs_capital_total`` spreads one fixed capture-plant capital over the
    plant's daily carbon mass, giving the scale economy the per-ton capital
    guidance implies.  ``pipe_cost_per_m`` treats the water-pipe capital
    (capacity times unit cost) jointly as one per-meter pipe cost.
    ``r_w_per_100km`` carries per-plant friction coefficients for pipes sized
    to each plant's design flow.
    """

    ccs_capital_total: float | None = None          # [$]
    pipe_cost_per_m: float | None = None            # [$ / m]
    r_w_per_100km: Mapping[str, float] = field(default_factory=dict)  # per plant


@dataclass(frozen=True)
class LoadedConfig:
    """A validated parameter set ready for scenario construction."""

    econ: EconParams
    plants: tuple[PlantSpec, ...]
    products: tuple[ProductSpec, ...]
    calibration: Calibration = Calibration()
    water_mode: water.WaterMode = water.Desalination()
    sweep_betas: tuple[float, ...] = (0.5, 1.0)

    def plant(self, name: str) -> PlantSpec:
        for p in self.plants:
            if p.name == name:
                return p
        raise ConfigError(f"unknown plant {name!r}; configured plants are "
                          f"{[p.name for p in self.plants]}")

    def product(self, name: str) -> ProductSpec:
        for p in self.products:
            if p.name == name:
                return p
        raise ConfigError(f"unknown product {name!r}; configured products are "
                          f"{[p.name for p in self.products]}")


# (config key, expected unit, required) for the econ section
_ECON_FIELDS: tuple[tuple[str, str, bool], ...] = (
    ("elec_price", "$/kWh", True),
    ("r_cts", "$/ton", True),
    ("r_ccs", "$/ton", True),
    ("c_cts", "$/(ton/day)", True),
    ("c_ccs", "$/(ton/day)", False),
    ("c_wind", "$/kW", True),
    ("c_des", "$/(m3/h)", True),
    ("c_tw", "$/m", True),
    ("c_sw", "$/(m3/h)", False),
    ("c_we", "$/(kg/h)", False),
    ("xi_p", "kWh/kg", False),
    ("wind_capacity_factor", "dimensionless", True),
    ("eta_pump", "dimensionless", True),
    ("r_w_per_100km", "dimensionless", False),
    ("interest_rate", "dimensionless", False),
)

_TOP_KEYS = {"econ", "plants", "products", "water", "sweep", "calibration", "policy"}
_WATER_MODES = {"desalination", "network_transfer", "solar_seawater"}


def _check_keys(mapping: Mapping, allowed: set[str], path: str, errors: list[str]) -> None:
    for key in mapping:
        if key not in allowed:
            errors.append(f"{path}{key}: unknown key (allowed: {sorted(allowed)})")


def _load_econ(section: Any, errors: list[str]) -> EconParams | None:
    if not isinstance(section, Mapping):
        errors.append("econ: must be a mapping of parameter names to values")
        return None
    allowed = {name for name, _, _ in _ECON_FIELDS} | {
        "e_des", "horizon_years", "product_prices"}
    _check_keys(section, allowed, "econ.", errors)

    kwargs: dict[str, Any] = {}
    for name, unit, required in _ECON_FIELDS:
        if name not in section or section[name] is None:
            if required:
                errors.append(f"econ.{name}: missing required key (expected {unit})")
            continue
        value = parse_quantity(section[name], unit, f"econ.{name}", errors)
        if value is not None:
            kwargs[name] = value

    if "e_des" in section and section["e_des"] is not None:
        seg = section["e_des"]
        if not isinstance(seg, (list, tuple)) or len(seg) != 4:
            errors.append("econ.e_des: expected a list of exactly 4 'value kWh/m3' entries")
        else:
            parsed = [parse_quantity(v, "kWh/m3", f"econ.e_des[{i+1}]", errors)
                      for i, v in enumerate(seg)]
            if all(p is not None for p in parsed):
                kwargs["e_des"] = tuple(parsed)

    if "horizon_years" in section and section["horizon_years"] is not None:
        n = section["horizon_years"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            errors.append(f"econ.horizon_years: expected an integer >= 1, got {n!r}")
        else:
            kwargs["horizon_years"] = n

    prices = section.get("product_prices")
    if prices is None:
        errors.append("econ.product_prices: missing required key (map of product -> '$/ton')")
    elif not isinstance(prices, Mapping):
        errors.append("econ.product_prices: must map product names to '<value> $/ton'")
    else:
        parsed_prices = {}
        for pname, ptext in prices.items():
            v = parse_quantity(ptext, "$/ton", f"econ.product_prices.{pname}", errors)
            if v is not None:
                parsed_prices[pname] = v
        kwargs["product_prices"] = parsed_prices

    if errors:
        return None
    try:
        return EconParams(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"econ: {exc}")
        return None


def _load_plants(section: Any, errors: list[str]) -> tuple[PlantSpec, ...]:
    if not isinstance(section, (list, tuple)) or not section:
        errors.append("plants: must be a non-empty list of {name, capacity, emission_factor}")
        return ()
    plants = []
    first_at: dict[str, int] = {}
    for i, entry in enumerate(section):
        path = f"plants[{i}]"
        if not isinstance(entry, Mapping):
            errors.append(f"{path}: must be a mapping")
            continue
        _check_keys(entry, {"name", "capacity", "emission_factor"}, path + ".", errors)
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{path}.name: missing or not a string")
            continue
        if name in first_at:
            errors.append(f"{path}.name: duplicate plant name {name!r} "
                          f"(first at plants[{first_at[name]}])")
            continue
        first_at[name] = i
        cap = parse_quantity(entry.get("capacity"), "kW", f"{path}.capacity", errors)
        ef = parse_quantity(entry.get("emission_factor"), "kg/kWh",
                            f"{path}.emission_factor", errors)
        if cap is None or ef is None:
            continue
        try:
            # keep the raw figures so round-decimal inputs stay exact
            raw_cap = str(entry["capacity"]).split(None, 1)
            raw_ef = str(entry["emission_factor"]).split(None, 1)
            plants.append(PlantSpec(name,
                                    Quantity(float(raw_cap[0]), raw_cap[1]),
                                    Quantity(float(raw_ef[0]), raw_ef[1])))
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
    return tuple(plants)


def _load_products(section: Any, errors: list[str]) -> tuple[ProductSpec, ...]:
    if section is None:
        return ()
    if not isinstance(section, (list, tuple)):
        errors.append("products: must be a list of product names")
        return ()
    out = []
    first_at: dict[str, int] = {}
    for i, name in enumerate(section):
        if not isinstance(name, str) or name not in BUILTIN_PRODUCTS:
            errors.append(f"products[{i}]: unknown product {name!r} "
                          f"(built-ins: {sorted(BUILTIN_PRODUCTS)})")
        elif name in first_at:
            errors.append(f"products[{i}]: duplicate product {name!r} "
                          f"(first at products[{first_at[name]}])")
        else:
            first_at[name] = i
            out.append(builtin_product(name))
    return tuple(out)


def _load_water(section: Any, errors: list[str]) -> water.WaterMode:
    if section is None:
        return water.Desalination()
    if not isinstance(section, Mapping):
        errors.append("water: must be a mapping with 'mode' and optional 'distance'")
        return water.Desalination()
    _check_keys(section, {"mode", "distance"}, "water.", errors)
    mode = section.get("mode", "desalination")
    if mode not in _WATER_MODES:
        errors.append(f"water.mode: unknown mode {mode!r} (allowed: {sorted(_WATER_MODES)})")
        return water.Desalination()
    if mode == "network_transfer":
        d = parse_quantity(section.get("distance"), "km", "water.distance", errors)
        if d is None:
            errors.append("water.distance: required for network_transfer (expected km)")
            return water.Desalination()
        return water.NetworkTransfer(Quantity(d, "km"))
    if mode == "solar_seawater":
        return water.SolarSeawater()
    return water.Desalination()


def _load_sweep(section: Any, errors: list[str]) -> tuple[float, ...]:
    if section is None:
        return (0.5, 1.0)
    if not isinstance(section, Mapping):
        errors.append("sweep: must be a mapping")
        return (0.5, 1.0)
    _check_keys(section, {"betas"}, "sweep.", errors)
    betas = section.get("betas", [0.5, 1.0])
    if not isinstance(betas, (list, tuple)) or not betas:
        errors.append("sweep.betas: must be a non-empty list of numbers")
        return (0.5, 1.0)
    first_at: dict[float, int] = {}
    for i, b in enumerate(betas):
        if not isinstance(b, (int, float)) or isinstance(b, bool) or not 0.0 <= float(b) <= 1.0:
            errors.append(f"sweep.betas[{i}]: reuse fraction must lie in [0, 1], got {b!r}")
        elif float(b) in first_at:
            errors.append(f"sweep.betas[{i}]: repeated reuse fraction {b!r} "
                          f"(first at sweep.betas[{first_at[float(b)]}])")
        else:
            first_at[float(b)] = i
    return tuple(first_at)


def _load_calibration(section: Any, errors: list[str]) -> Calibration:
    if section is None:
        return Calibration()
    if not isinstance(section, Mapping):
        errors.append("calibration: must be a mapping")
        return Calibration()
    _check_keys(section, {"ccs_capital_total", "pipe_cost_per_m", "r_w_per_100km"},
                "calibration.", errors)
    total = None
    if section.get("ccs_capital_total") is not None:
        total = parse_quantity(section["ccs_capital_total"], "$",
                               "calibration.ccs_capital_total", errors)
    pipe = None
    if section.get("pipe_cost_per_m") is not None:
        pipe = parse_quantity(section["pipe_cost_per_m"], "$/m",
                              "calibration.pipe_cost_per_m", errors)
    r_w: dict[str, float] = {}
    rw_section = section.get("r_w_per_100km")
    if rw_section is not None:
        if not isinstance(rw_section, Mapping):
            errors.append("calibration.r_w_per_100km: must map plant names to coefficients")
        else:
            for pname, v in rw_section.items():
                if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                    errors.append(f"calibration.r_w_per_100km.{pname}: must be a number >= 0")
                else:
                    r_w[pname] = float(v)
    return Calibration(total, pipe, r_w)


def _load_policy(section: Any, errors: list[str]) -> bool:
    if section is None:
        return False
    if not isinstance(section, Mapping):
        errors.append("policy: must be a mapping")
        return False
    _check_keys(section, {"include_hydrogen_capital"}, "policy.", errors)
    flag = section.get("include_hydrogen_capital", False)
    if not isinstance(flag, bool):
        errors.append("policy.include_hydrogen_capital: must be true or false")
        return False
    return flag


def load_config_text(text: str) -> LoadedConfig:
    """Validate a YAML config document; all problems are reported together."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ConfigError("config must be a YAML mapping at the top level")

    errors: list[str] = []
    _check_keys(data, _TOP_KEYS, "", errors)
    econ = _load_econ(data.get("econ"), errors) if "econ" in data else None
    if "econ" not in data:
        errors.append("econ: missing required section")
    plants = _load_plants(data.get("plants"), errors) if "plants" in data else ()
    if "plants" not in data:
        errors.append("plants: missing required section")
    products = _load_products(data.get("products"), errors)
    water_mode = _load_water(data.get("water"), errors)
    betas = _load_sweep(data.get("sweep"), errors)
    calibration = _load_calibration(data.get("calibration"), errors)
    include_h2 = _load_policy(data.get("policy"), errors)

    plant_names = sorted(p.name for p in plants)
    for pname in calibration.r_w_per_100km:
        if pname not in plant_names:
            errors.append(f"calibration.r_w_per_100km.{pname}: names no configured plant "
                          f"(plants: {plant_names})")
    if econ is not None:
        if econ.c_ccs is None and calibration.ccs_capital_total is None:
            errors.append("econ.c_ccs: required unless calibration.ccs_capital_total is given "
                          "(no defensible default exists)")
        if isinstance(water_mode, water.SolarSeawater) and econ.c_sw is None:
            errors.append("econ.c_sw: required when water.mode is solar_seawater "
                          "(expected $/(m3/h); no default exists)")
        for p in products:
            if p.name not in econ.product_prices:
                errors.append(f"econ.product_prices.{p.name}: missing price for a "
                              "configured product (expected $/ton)")

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    assert econ is not None
    return LoadedConfig(econ=replace(econ, include_hydrogen_capital=include_h2),
                        plants=plants, products=products, calibration=calibration,
                        water_mode=water_mode, sweep_betas=betas)


def load_config(path_or_preset: str | Path) -> LoadedConfig:
    """Load a config file, or a shipped preset by name (e.g. 'paper-2024')."""
    path = Path(path_or_preset)
    if not path.exists() and str(path_or_preset) in PRESETS:
        text = resources.files("ewhnexus").joinpath(
            "presets", PRESETS[str(path_or_preset)]).read_text(encoding="utf-8")
        return load_config_text(text)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(
            f"config {path_or_preset!r} is neither a file nor a known preset "
            f"({sorted(PRESETS)})") from None
    return load_config_text(text)


def _fmt_quantity(value: float, unit: str) -> str:
    return f"{value!r} {unit}"


def dump_config(cfg: LoadedConfig) -> str:
    """Serialize a resolved config; reloading it reproduces identical results."""
    econ = cfg.econ
    econ_map: dict[str, Any] = {}
    for name, unit, _ in _ECON_FIELDS:
        value = getattr(econ, name)
        if value is not None:
            econ_map[name] = value if unit == "dimensionless" else _fmt_quantity(value, unit)
    econ_map["e_des"] = [_fmt_quantity(e, "kWh/m3") for e in econ.e_des]
    econ_map["horizon_years"] = econ.horizon_years
    econ_map["product_prices"] = {k: _fmt_quantity(v, "$/ton")
                                  for k, v in sorted(econ.product_prices.items())}

    data: dict[str, Any] = {
        "econ": econ_map,
        "plants": [{"name": p.name,
                    "capacity": _fmt_quantity(p.capacity.magnitude, p.capacity.unit),
                    "emission_factor": _fmt_quantity(p.emission_factor.magnitude,
                                                     p.emission_factor.unit)}
                   for p in cfg.plants],
        "products": [p.name for p in cfg.products],
        "sweep": {"betas": list(cfg.sweep_betas)},
        "policy": {"include_hydrogen_capital": econ.include_hydrogen_capital},
    }
    mode = cfg.water_mode
    if isinstance(mode, water.NetworkTransfer):
        data["water"] = {"mode": "network_transfer",
                         "distance": _fmt_quantity(mode.distance.magnitude, mode.distance.unit)}
    elif isinstance(mode, water.SolarSeawater):
        data["water"] = {"mode": "solar_seawater"}
    else:
        data["water"] = {"mode": "desalination"}
    cal = cfg.calibration
    cal_map: dict[str, Any] = {}
    if cal.ccs_capital_total is not None:
        cal_map["ccs_capital_total"] = _fmt_quantity(cal.ccs_capital_total, "$")
    if cal.pipe_cost_per_m is not None:
        cal_map["pipe_cost_per_m"] = _fmt_quantity(cal.pipe_cost_per_m, "$/m")
    if cal.r_w_per_100km:
        cal_map["r_w_per_100km"] = dict(sorted(cal.r_w_per_100km.items()))
    if cal_map:
        data["calibration"] = cal_map
    return yaml.safe_dump(data, sort_keys=False, default_flow_style=False)
