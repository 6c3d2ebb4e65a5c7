"""Parameter-file ingestion, validation and round-trippable export.

Configs are plain YAML.  Every dimensioned value is written as a
``"value unit"`` string and is dimension-checked while loading; unknown keys
anywhere in the file are hard errors so typos cannot silently fall back to
defaults.  All validation problems are collected and reported in one pass;
nothing is computed from an invalid config.

``load_config`` validates each distinct text once per process and hands every
caller of that text the same read-only ``LoadedConfig``; ``load_config_text``
always parses.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Any, Mapping

from . import _yaml as yaml
from . import water
from .analysis import SweepCell, SweepGrid, beta_errors, scenario_sweep
from .conversion import BUILTIN_PRODUCTS, ProductSpec
from .economics import ScenarioConfig, unset_costs
from .quantities import (
    DomainError, EconParams, FrozenMap, PlantSpec, Quantity, UnitError, check_nonneg, check_type,
)


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


#: packaged preset names -> resource file
PRESETS = {"paper-2024": "paper-2024.yaml"}
DEFAULT_BETAS: tuple[float, ...] = (0.5, 1.0)   # a config's betas without sweep.betas


def parse_quantity(text: Any, expected_unit: str, path: str,
                   errors: list[str]) -> Quantity | None:
    """Parse ``"value unit"`` (or a bare number for dimensionless fields).

    The dimension is checked against ``expected_unit``; the quantity keeps
    the unit it was written in, so round-decimal inputs stay exact.
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        if expected_unit != "dimensionless":
            errors.append(f"{path}: expected a '<value> {expected_unit}' string, "
                          f"got bare number {text!r}")
            return None
        text = str(text)   # so a non-finite number is reported, as a string one is
    if not isinstance(text, str):
        errors.append(f"{path}: expected a '<value> {expected_unit}' string, got {text!r}")
        return None
    parts = text.split(None, 1)
    if not parts or (len(parts) != 2 and expected_unit != "dimensionless"):
        errors.append(f"{path}: expected '<value> {expected_unit}', got {text!r}")
        return None
    raw, unit = (parts if len(parts) == 2 else (parts[0], "dimensionless"))
    try:
        value = float(raw)
    except ValueError:
        errors.append(f"{path}: {raw!r} is not a number")
        return None
    try:
        quantity = Quantity(value, unit)
        quantity.value_in(expected_unit)   # the dimension check
    except UnitError as exc:
        errors.append(f"{path}: {exc} (expected {expected_unit})")
        return None
    return quantity


@dataclass(frozen=True)
class Calibration:
    """Fitted, non-published calibration rules used by a preset.

    ``ccs_capital_total`` spreads one fixed capture-plant capital over the
    plant's daily carbon mass, giving the scale economy the per-ton capital
    guidance implies.  ``r_w_per_100km`` carries per-plant friction
    coefficients for pipes sized to each plant's design flow, standing in for
    the pipe diameter each design flow would get.  Both depend on the plant
    alone; neither changes a formula, only the numbers fed into it.
    """

    ccs_capital_total: float | None = None          # [$]
    r_w_per_100km: Mapping[str, float] = field(default_factory=FrozenMap)  # per plant

    def __post_init__(self):
        check_type("r_w_per_100km", self.r_w_per_100km, Mapping, "a map of names to numbers")
        object.__setattr__(self, "r_w_per_100km", FrozenMap(self.r_w_per_100km))
        if self.ccs_capital_total is not None:
            check_nonneg("ccs_capital_total", self.ccs_capital_total)
        for k, v in self.r_w_per_100km.items():
            check_nonneg(f"r_w_per_100km[{k}]", v)

    def apply(self, econ: EconParams, plant: PlantSpec) -> EconParams:
        """``econ`` calibrated for ``plant``, checked by ``EconParams`` itself."""
        updates: dict[str, float] = {}
        if self.ccs_capital_total is not None:
            updates["c_ccs"] = self.ccs_capital_total / plant.cbar_day
        if plant.name in self.r_w_per_100km:
            updates["r_w_per_100km"] = self.r_w_per_100km[plant.name]
        return replace(econ, **updates) if updates else econ


def _config_errors(econ: EconParams | None, plants: tuple[PlantSpec, ...] | None,
                   products: tuple[ProductSpec, ...] | None, calibration: Calibration | None,
                   water_mode: water.WaterMode | None, sweep_betas: tuple[float, ...] | None
                   ) -> tuple[list[str], tuple[EconParams, ...]]:
    """Every broken rule between a config's entries and sections, and each plant calibrated.

    A section that failed to load is None, and the rules that read it are
    skipped.  An entry is named by its index, its YAML position when loaded.
    """
    errors: list[str] = []
    if plants is not None and not plants:
        errors.append("plants: must be a non-empty list of {name, capacity, emission_factor}")
    if sweep_betas is not None and not sweep_betas:
        errors.append("sweep.betas: must be a non-empty list of numbers")
    for section, entries, rule in (("plants", plants, ".name: duplicate plant name"),
                                   ("products", products, ": duplicate product")):
        seen: dict[Any, int] = {}
        for i, entry in enumerate(entries or ()):
            if seen.setdefault(entry.name, i) != i:
                errors.append(f"{section}[{i}]{rule} {entry.name!r} "
                              f"(first at {section}[{seen[entry.name]}])")
    errors.extend(f"products[{i}]: {p.name!r} differs from every built-in product" for i, p
                  in enumerate(products or ()) if BUILTIN_PRODUCTS.get(p.name) != p)
    # a plant name goes as written into a CSV field and a table cell
    errors.extend(f"plants[{i}].name: plant name {p.name!r} must be printable and contain "
                  "no ',' or '\"'" for i, p in enumerate(plants or ())
                  if not p.name.isprintable() or "," in p.name or '"' in p.name)
    errors.extend(beta_errors(sweep_betas or (), "sweep.betas"))
    if calibration is not None and plants is not None:
        names = sorted(p.name for p in plants)
        errors.extend(f"calibration.r_w_per_100km.{name}: names no configured plant "
                      f"(plants: {names})" for name in calibration.r_w_per_100km
                      if name not in names)
    if econ is None:
        return errors, ()
    if calibration is not None and (econ.c_ccs is None) == (calibration.ccs_capital_total is None):
        errors.append("econ.c_ccs: required unless calibration.ccs_capital_total is given "
                      "(no defensible default exists)" if econ.c_ccs is None else
                      "econ.c_ccs: not allowed with calibration.ccs_capital_total, which "
                      "sets the capture capital per plant")
    errors.extend(f"econ.{k}: {why}" for _, k, why in unset_costs(econ, products or (), water_mode))
    econs = []
    for plant in (plants or ()) if calibration is not None else ():
        try:
            econs.append(calibration.apply(econ, plant))
        except ValueError as exc:
            errors.append(f"plant {plant.name!r}: calibrated {exc}")
    return errors, tuple(econs)


def _tuple_of(entries: Any, kind: type) -> bool:
    return isinstance(entries, tuple) and all(isinstance(e, kind) for e in entries)


@dataclass(frozen=True)
class LoadedConfig:
    """A validated parameter set ready for scenario construction.

    Loaded, constructed or made by ``dataclasses.replace``, it raises a
    ConfigError naming each mistyped field, else each ``_config_errors`` rule it breaks.
    ``plant_econs`` holds each plant's calibrated parameters, built once here.
    """

    econ: EconParams
    plants: tuple[PlantSpec, ...]
    products: tuple[ProductSpec, ...]
    calibration: Calibration
    water_mode: water.WaterMode
    sweep_betas: tuple[float, ...]
    plant_econs: tuple[EconParams, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # first, as _config_errors reads a None as a section that failed to load
        errors = [f"{name}: must be {kind}, got {getattr(self, name)!r}" for name, kind, ok in (
            ("econ", "an EconParams", isinstance(self.econ, EconParams)),
            ("plants", "a tuple of PlantSpec", _tuple_of(self.plants, PlantSpec)),
            ("products", "a tuple of ProductSpec", _tuple_of(self.products, ProductSpec)),
            ("calibration", "a Calibration", isinstance(self.calibration, Calibration))) if not ok]
        try:
            water.mode_name(self.water_mode)
        except DomainError as exc:
            errors.append(f"water_mode: {exc}")
        if not isinstance(self.sweep_betas, tuple):
            errors.append(f"sweep_betas: must be a tuple, got {self.sweep_betas!r}")
        if not errors:
            errors, econs = _config_errors(self.econ, self.plants, self.products,
                                           self.calibration, self.water_mode, self.sweep_betas)
        if errors:
            raise ConfigError("\n  ".join(errors))
        object.__setattr__(self, "plant_econs", econs)

    def econ_for(self, plant: PlantSpec) -> EconParams:
        """``plant``'s calibrated parameters, built with the config for a plant of ``plants``.

        Any other plant, even an equal one, is calibrated on the spot; a
        DomainError says why it or its parameters are invalid.
        """
        for configured, econ in zip(self.plants, self.plant_econs):
            if configured is plant:
                return econ
        check_type("plant", plant, PlantSpec)
        return self.calibration.apply(self.econ, plant)

    def scenario(self, plant: PlantSpec, product: ProductSpec | None = None,
                 beta: float = 0.0) -> ScenarioConfig:
        """One cell: ``plant`` at reuse fraction ``beta`` in this config's water mode."""
        return ScenarioConfig(plant=plant, econ=self.econ_for(plant), beta=beta,
                              product=product, water_mode=self.water_mode)

    def sweep(self) -> tuple[SweepCell, ...]:
        """Every cell of this config's grid: its plants, products, betas and water mode."""
        grid = SweepGrid(self.plants, self.products, self.sweep_betas, self.water_mode)
        return scenario_sweep(grid, self.econ, econ_resolver=self.econ_for)

    def plant(self, name: str) -> PlantSpec:
        return _named(self.plants, name, "plant")

    def product(self, name: str) -> ProductSpec:
        return _named(self.products, name, "product")


def _named(entries: tuple, name: str, kind: str) -> Any:
    for entry in entries:
        if entry.name == name:
            return entry
    raise ConfigError(f"unknown {kind} {name!r}; configured {kind}s are "
                      f"{[entry.name for entry in entries]}")


# (section, key, unit, required) for every econ, policy and calibration key,
# in dump order.  A unit is a UNITS name, "int" or "bool"; a "[4] " prefix is
# a list of four values, a "{} " prefix a map of names to values.  Econ and
# policy keys are EconParams fields, calibration keys Calibration fields.
_FIELDS: tuple[tuple[str, str, str, bool], ...] = (
    ("econ", "elec_price", "$/kWh", True),
    ("econ", "r_cts", "$/ton", True),
    ("econ", "r_ccs", "$/ton", True),
    ("econ", "c_cts", "$/(ton/day)", True),
    ("econ", "c_ccs", "$/(ton/day)", False),
    ("econ", "c_wind", "$/kW", True),
    ("econ", "c_des", "$/(m3/h)", True),
    ("econ", "c_tw", "$/m", True),
    ("econ", "c_sw", "$/(m3/h)", False),
    ("econ", "c_we", "$/(kg/h)", False),
    ("econ", "xi_p", "kWh/kg", False),
    ("econ", "wind_capacity_factor", "dimensionless", True),
    ("econ", "eta_pump", "dimensionless", True),
    ("econ", "r_w_per_100km", "dimensionless", False),
    ("econ", "interest_rate", "dimensionless", False),
    ("econ", "e_des", "[4] kWh/m3", False),
    ("econ", "horizon_years", "int", False),
    ("econ", "product_prices", "{} $/ton", True),
    ("policy", "include_hydrogen_capital", "bool", False),
    ("calibration", "ccs_capital_total", "$", False),
    ("calibration", "r_w_per_100km", "{} dimensionless", False),
)
# section -> its (key, unit, required) rows
_SECTIONS: dict[str, tuple[tuple[str, str, bool], ...]] = {
    name: tuple((k, u, r) for s, k, u, r in _FIELDS if s == name)
    for name in ("econ", "policy", "calibration")}

_TOP_KEYS = {"econ", "plants", "products", "water", "sweep", "calibration", "policy"}
_WATER_KEYS = {"mode"}.union(*(keys for _, keys in water.MODES.values()))


def _check_keys(mapping: Mapping, allowed: set[str], path: str, errors: list[str]) -> None:
    for key in mapping:
        if key not in allowed:
            errors.append(f"{path}{key}: unknown key (allowed: {sorted(allowed)})")


def _section(data: Mapping, name: str, allowed: set[str], errors: list[str]) -> Mapping | None:
    """The named top-level mapping, its unknown keys reported; None if absent or not a mapping."""
    section = data.get(name)
    if section is None:
        return None
    if not isinstance(section, Mapping):
        errors.append(f"{name}: must be a mapping")
        return None
    _check_keys(section, allowed, name + ".", errors)
    return section


def _parse(value: Any, unit: str, path: str, errors: list[str]) -> Any:
    """One table value in the form its dataclass field stores, or None if invalid."""
    if unit.startswith("[4] "):
        if not isinstance(value, (list, tuple)) or len(value) != 4:
            errors.append(f"{path}: expected a list of exactly 4 '<value> {unit[4:]}' entries")
            return None
        items = [_parse(v, unit[4:], f"{path}[{i + 1}]", errors) for i, v in enumerate(value)]
        return None if None in items else tuple(items)
    if unit.startswith("{} "):
        if not isinstance(value, Mapping):
            errors.append(f"{path}: must map names to '<value> {unit[3:]}'")
            return None
        entries = {k: _parse(v, unit[3:], f"{path}.{k}", errors) for k, v in value.items()}
        return None if None in entries.values() else entries
    if unit in ("int", "bool"):   # EconParams states their rules
        return value
    quantity = parse_quantity(value, unit, path, errors)
    return None if quantity is None else quantity.value_in(unit)


def _fmt(value: Any, unit: str) -> Any:
    """One table value as the dump writes it; ``_parse`` reads it back unchanged."""
    if unit.startswith("[4] "):
        return [_fmt(v, unit[4:]) for v in value]
    if unit.startswith("{} "):
        return {k: _fmt(v, unit[3:]) for k, v in sorted(value.items())}
    if unit in ("int", "bool", "dimensionless"):
        return value
    return f"{value!r} {unit}"


def _load_table(data: Mapping, kind: type, names: tuple[str, ...], errors: list[str]) -> Any:
    """``kind`` built from the keys of the named table sections, or None if any is invalid."""
    start = len(errors)
    values = {}
    for name in names:
        rows = _SECTIONS[name]
        section = _section(data, name, {key for key, _, _ in rows}, errors)
        if section is None and data.get(name) is None and any(r for _, _, r in rows):
            errors.append(f"{name}: missing required section")
        for key, unit, required in rows if section is not None else ():
            if section.get(key) is not None:
                values[key] = _parse(section[key], unit, f"{name}.{key}", errors)
            elif required:
                expected = unit.replace("{} ", "a map of names to ")
                errors.append(f"{name}.{key}: missing required key (expected {expected})")
    if len(errors) > start:
        return None
    try:
        return kind(**values)
    except ValueError as exc:   # labelled by the section read that holds the key named first
        hits = [(str(exc).find(k), n) for n in names for k, _, _ in _SECTIONS[n] if k in str(exc)]
        errors.append(f"{min(hits, default=(0, names[0]))[1]}: {exc}")
        return None


def _load_plants(data: Mapping, errors: list[str]) -> tuple[PlantSpec, ...] | None:
    section = data.get("plants")
    if not isinstance(section, (list, tuple)):   # _config_errors rejects an empty list
        errors.append("plants: missing required section" if "plants" not in data else
                      "plants: must be a non-empty list of {name, capacity, emission_factor}")
        return None
    start = len(errors)
    plants = []
    for i, entry in enumerate(section):
        path = f"plants[{i}]"
        if not isinstance(entry, Mapping):
            errors.append(f"{path}: must be a mapping")
            continue
        _check_keys(entry, {"name", "capacity", "emission_factor"}, path + ".", errors)
        cap = parse_quantity(entry.get("capacity"), "kW", f"{path}.capacity", errors)
        ef = parse_quantity(entry.get("emission_factor"), "kg/kWh",
                            f"{path}.emission_factor", errors)
        if cap is not None and ef is not None:
            try:
                plants.append(PlantSpec(entry.get("name"), cap, ef))
            except ValueError as exc:
                errors.append(f"{path}: {exc}")
    return None if len(errors) > start else tuple(plants)


def _load_products(section: Any, errors: list[str]) -> tuple[ProductSpec, ...] | None:
    if section is None:
        return ()
    if not isinstance(section, (list, tuple)):
        errors.append("products: must be a list of product names")
        return None
    unknown = [f"products[{i}]: unknown product {name!r} (built-ins: {sorted(BUILTIN_PRODUCTS)})"
               for i, name in enumerate(section)
               if not isinstance(name, str) or name not in BUILTIN_PRODUCTS]
    errors.extend(unknown)
    return None if unknown else tuple(BUILTIN_PRODUCTS[name] for name in section)


def _load_water(section: Mapping, errors: list[str]) -> water.WaterMode | None:
    name = section.get("mode", "desalination")
    if not isinstance(name, str) or name not in water.MODES:
        errors.append(f"water.mode: unknown mode {name!r} (allowed: {sorted(water.MODES)})")
        return None
    mode, keys = water.MODES[name]
    errors.extend(f"water.{key}: {name} mode takes no {key}"
                  for key in sorted(_WATER_KEYS.intersection(section) - {"mode", *keys}))
    values = {}
    for key, unit in keys.items():
        if section.get(key) is None:
            errors.append(f"water.{key}: required for {name} (expected {unit})")
            return None
        values[key] = parse_quantity(section[key], unit, f"water.{key}", errors)
        if values[key] is None:   # parse_quantity has reported why
            return None
    try:
        return mode(**values)
    except ValueError as exc:
        errors.append(f"water: {exc}")
        return None


def _load_sweep(section: Mapping, errors: list[str]) -> tuple[float, ...] | None:
    betas = section.get("betas", DEFAULT_BETAS)
    if not isinstance(betas, (list, tuple)):   # _config_errors rejects an empty list
        errors.append("sweep.betas: must be a non-empty list of numbers")
        return None
    # numbers as the floats the dump writes; _config_errors reports any other entry
    return tuple(float(b) if type(b) in (int, float) else b for b in betas)


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
    sections = {   # each None if its section is invalid
        "econ": _load_table(data, EconParams, ("econ", "policy"), errors),
        "calibration": _load_table(data, Calibration, ("calibration",), errors),
        "plants": _load_plants(data, errors),
        "products": _load_products(data.get("products"), errors),
        "water_mode": _load_water(_section(data, "water", _WATER_KEYS, errors) or {}, errors),
        "sweep_betas": _load_sweep(_section(data, "sweep", {"betas"}, errors) or {}, errors)}
    if None in sections.values():   # the rules that read only sections which loaded
        errors.extend(_config_errors(**sections)[0])
    else:
        try:
            cfg = LoadedConfig(**sections)
        except ConfigError as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    return cfg


def load_config(path_or_preset: str | os.PathLike) -> LoadedConfig:
    """Load a config file, or a shipped preset by name (e.g. 'paper-2024').

    The path is opened once, as given; a preset is read only where no file of its name
    exists.  A file is read on every call, so an edited file reloads, and a shipped preset
    once per process; a text already validated returns the same read-only config.
    """
    path = os.fspath(path_or_preset)
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except FileNotFoundError:
        if path in PRESETS:
            return _validated(_preset_text(path))
        raise ConfigError(
            f"config {path_or_preset!r} is neither a file nor a known preset "
            f"({sorted(PRESETS)})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path_or_preset!r} is not UTF-8 text: {exc}") from None
    return _validated(text)


def paper_2024() -> LoadedConfig:
    """The shipped calibrated preset (presets/paper-2024.yaml), whatever files there are."""
    return _validated(_preset_text("paper-2024"))


@functools.cache   # a shipped preset does not change while the process runs
def _preset_text(name: str) -> str:
    return resources.files("ewhnexus").joinpath("presets", PRESETS[name]).read_text("utf-8")


@functools.cache   # read on first use: neither the import nor a config load reads it
def paper_2024_reference() -> tuple[Mapping[str, Any], ...]:
    """The paper's printed values (presets/paper-2024-reference.yaml), parsed once, read-only."""
    return tuple(map(FrozenMap, yaml.safe_load(resources.files("ewhnexus").joinpath(
        "presets", "paper-2024-reference.yaml").read_text("utf-8"))["values"]))


@functools.lru_cache(maxsize=16)   # a batch of CLI calls reads a handful of configs
def _validated(text: str) -> LoadedConfig:
    """``load_config_text`` once per distinct text; a ConfigError is raised, never kept."""
    return load_config_text(text)   # the module global, so a rebinding sees every parse


def _dump_fields(obj: Any, name: str) -> dict[str, Any]:
    """The set values of one table section; an unset key or empty optional map is left out."""
    return {key: _fmt(value, unit) for key, unit, required in _SECTIONS[name]
            if (value := getattr(obj, key)) is not None and (required or value != {})}


def dump_config(cfg: LoadedConfig) -> str:
    """Serialize a resolved config; reloading it reproduces identical results."""
    data: dict[str, Any] = {
        "econ": _dump_fields(cfg.econ, "econ"),
        "plants": [{"name": p.name,
                    "capacity": _fmt(p.capacity.magnitude, p.capacity.unit),
                    "emission_factor": _fmt(p.emission_factor.magnitude, p.emission_factor.unit)}
                   for p in cfg.plants],
        "products": [p.name for p in cfg.products],
        "sweep": {"betas": list(cfg.sweep_betas)},
        "policy": _dump_fields(cfg.econ, "policy"),
    }
    mode = cfg.water_mode
    name = water.mode_name(mode)
    keys = water.MODES[name][1]
    data["water"] = {"mode": name, **{key: _fmt(getattr(mode, key).magnitude,
                                                getattr(mode, key).unit) for key in keys}}
    calibration = _dump_fields(cfg.calibration, "calibration")
    if calibration:
        data["calibration"] = calibration
    return yaml.safe_dump(data)
