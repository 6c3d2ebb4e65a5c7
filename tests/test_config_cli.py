"""Config ingestion, validation, round-trip export, and the CLI surface."""

import copy
import dataclasses
import errno
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from ewhnexus.cli import (
    COMMANDS, SWEEP_COLUMNS, SWEEP_CSV_HEADER, _parse_float_list, main, parse_args, render_csv,
    render_json, render_output,
)
from ewhnexus import config
from ewhnexus.config import (
    Calibration, ConfigError, dump_config, load_config, load_config_text, paper_2024,
    paper_2024_reference,
)
from ewhnexus.conversion import METHANE, ProductSpec, _reuse_rates
from ewhnexus.economics import ScenarioConfig, total_daily_cost
from ewhnexus.quantities import DomainError, FrozenMap, PlantSpec, Quantity, TimeSeries
from ewhnexus.water import Desalination, NetworkTransfer, SolarSeawater


PRESET_TEXT = resources.files("ewhnexus").joinpath("presets", "paper-2024.yaml").read_text()
GOLDEN = Path(__file__).parent / "golden"


def preset_dict():
    """The shipped preset as a mutable dict, for targeted corruption."""
    return yaml.safe_load(PRESET_TEXT)


def reference_entry(quantity: str, plant: str, **where):
    """The one published value of ``quantity`` at ``plant`` (and ``where``'s keys)."""
    [entry] = [e for e in paper_2024_reference() if e["quantity"] == quantity
               and e.get("plant") == plant and all(e.get(k) == v for k, v in where.items())]
    return entry


def ledger_row(cell) -> dict:
    """A sweep cell as a row of ``SWEEP_COLUMNS`` read from its ledger, or an error row."""
    r = cell.result
    if r is None:
        return {"plant": cell.plant, "product": cell.product, "beta": cell.beta,
                "error": cell.error}
    capital, _, operational, revenue = r.ledger.totals()
    return dict(zip(SWEEP_COLUMNS, (
        cell.plant, cell.product, cell.beta, capital, operational, revenue,
        r.daily_cost.magnitude, r.increased_price.magnitude, r.carbon_penalty.magnitude)))


def sweep_csv(cfg) -> str:
    cells = cfg.sweep()
    return render_csv([ledger_row(c) for c in cells if c.result is not None], SWEEP_COLUMNS)


@st.composite
def jittered_configs(draw):
    """The preset by ``dataclasses.replace``: plants, costs and prices scaled, a price may be 0
    and a cost huge, in any water mode, the electrolyzer's capital in or out."""
    base = paper_2024()
    scale = st.floats(0.5, 2.0)

    def jitter(q: Quantity) -> Quantity:
        return Quantity(q.magnitude * draw(scale), q.unit)

    plants = tuple(PlantSpec(p.name, jitter(p.capacity), jitter(p.emission_factor))
                   for p in base.plants)
    prices = {name: draw(st.just(0.0) | scale) * price
              for name, price in base.econ.product_prices.items()}
    econ = dataclasses.replace(
        base.econ, elec_price=base.econ.elec_price * draw(scale | st.just(1e305)),
        c_sw=draw(st.floats(1e5, 4e5)), product_prices=prices,
        include_hydrogen_capital=draw(st.booleans()))
    mode = draw(st.sampled_from([Desalination(), SolarSeawater()]) | st.builds(
        NetworkTransfer, st.builds(Quantity, st.floats(0.0, 500.0), st.just("km"))))
    betas = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=4,
                          unique=True))
    return dataclasses.replace(base, econ=econ, plants=plants, water_mode=mode,
                               sweep_betas=tuple(betas))


class TestLoadConfig:
    def test_shipped_preset_loads_with_zero_overrides(self):
        cfg = paper_2024()
        assert [p.name for p in cfg.plants] == ["biomass", "natural_gas", "coal"]
        assert [p.name for p in cfg.products] == ["methane", "methanol", "ethanol"]
        assert cfg.econ.elec_price == 0.25
        assert cfg.econ.xi_p == 52.5
        assert cfg.econ.c_tw == 160.0

    def test_unknown_key_is_a_hard_error_with_path(self):
        data = preset_dict()
        data["econ"]["elec_pricee"] = "0.3 $/kWh"
        with pytest.raises(ConfigError, match="elec_pricee"):
            load_config_text(yaml.safe_dump(data))

    def test_out_of_range_beta_names_the_bound(self):
        data = preset_dict()
        data["sweep"]["betas"] = [0.5, 1.2]
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            load_config_text(yaml.safe_dump(data))

    def test_missing_required_key_reports_path_and_unit(self):
        data = preset_dict()
        del data["econ"]["c_wind"]
        with pytest.raises(ConfigError, match=r"econ\.c_wind.*\$/kW"):
            load_config_text(yaml.safe_dump(data))

    def test_unit_mismatch_reports_expected_unit(self):
        data = preset_dict()
        data["econ"]["elec_price"] = "0.25 $/ton"
        with pytest.raises(ConfigError, match=r"\$/kWh"):
            load_config_text(yaml.safe_dump(data))

    def test_plant_unit_of_another_dimension_names_the_field(self):
        data = preset_dict()
        data["plants"][0]["capacity"] = "500 ton"
        data["plants"][1]["emission_factor"] = "490 kWh"
        with pytest.raises(ConfigError) as err:
            load_config_text(yaml.safe_dump(data))
        message = str(err.value)
        assert "plants[0].capacity: cannot convert 'ton' to 'kW' (expected kW)" in message
        assert ("plants[1].emission_factor: cannot convert 'kWh' to 'kg/kWh' "
                "(expected kg/kWh)") in message

    def test_all_errors_reported_in_one_pass(self):
        data = preset_dict()
        data["econ"]["elec_price"] = "0.25 $/ton"
        data["sweep"]["betas"] = [1.5]
        data["water"] = {"mode": "volcanic"}
        try:
            load_config_text(yaml.safe_dump(data))
        except ConfigError as exc:
            message = str(exc)
            assert "elec_price" in message and "betas" in message and "volcanic" in message
        else:
            pytest.fail("expected a ConfigError")

    def test_a_types_rules_are_reported_first_one_only(self):
        # EconParams states both rules and raises at the first it meets
        data = preset_dict()
        data["econ"]["horizon_years"] = 2.5
        data.setdefault("policy", {})["include_hydrogen_capital"] = "yes"
        with pytest.raises(ConfigError) as err:
            load_config_text(yaml.safe_dump(data))
        assert str(err.value) == ("invalid config:\n"
                                  "  econ: horizon_years must be an integer >= 1, got 2.5")

    def test_xi_p_override_flows_downstream(self):
        data = preset_dict()
        data["econ"]["xi_p"] = "50 kWh/kg"
        cfg = load_config_text(yaml.safe_dump(data))
        assert cfg.econ.xi_p == 50.0

    def test_solar_mode_without_c_sw_is_an_error(self):
        data = preset_dict()
        data["water"] = {"mode": "solar_seawater"}
        with pytest.raises(ConfigError, match="c_sw"):
            load_config_text(yaml.safe_dump(data))

    def test_missing_c_ccs_without_calibration_is_an_error(self):
        data = preset_dict()
        del data["calibration"]["ccs_capital_total"]
        with pytest.raises(ConfigError, match="c_ccs"):
            load_config_text(yaml.safe_dump(data))

    def test_c_ccs_with_a_capture_capital_total_is_an_error(self):
        # the calibration sets c_ccs per plant; a configured value would be ignored
        data = preset_dict()
        data["econ"]["c_ccs"] = "1 $/(ton/day)"
        with pytest.raises(ConfigError) as info:
            load_config_text(yaml.safe_dump(data))
        assert str(info.value) == (
            "invalid config:\n  econ.c_ccs: not allowed with calibration.ccs_capital_total, "
            "which sets the capture capital per plant")

    # a capture capital spread over so small a daily mass overflows c_ccs; the
    # second carbon rate underflows to 0, which the plant itself rejects while loading
    @pytest.mark.parametrize("emission_factor, plant_error, calibrated_error", [
        ("820 g/kWh", [], ["plant 'tiny': calibrated c_ccs must be finite and >= 0, got inf"]),
        ("1e-300 kg/kWh", ["plants[3]: plant 'tiny': full-load carbon rate must be positive, "
                           "got 0.0 ton/h"], []),
    ], ids=["820 g/kWh", "1e-300 kg/kWh"])
    def test_a_plant_too_small_for_the_capture_capital_is_an_error(
            self, emission_factor, plant_error, calibrated_error):
        data = preset_dict()
        data["plants"].append({"name": "tiny", "capacity": "1e-305 kW",
                               "emission_factor": emission_factor})
        data["water"] = {"mode": "no_such_mode"}   # reported in the same pass
        with pytest.raises(ConfigError) as info:
            load_config_text(yaml.safe_dump(data))
        assert str(info.value).split("\n")[1:] == [f"  {line}" for line in [
            *plant_error,
            "water.mode: unknown mode 'no_such_mode' (allowed: "
            "['desalination', 'network_transfer', 'solar_seawater'])",
            *calibrated_error]]

    def test_calibration_key_naming_no_plant_is_an_error(self):
        # a typo must not silently drop biomass back to the default friction
        data = preset_dict()
        friction = data["calibration"]["r_w_per_100km"]
        friction["biomas"] = friction.pop("biomass")
        data["econ"]["elec_price"] = "0.25 $/ton"
        try:
            load_config_text(yaml.safe_dump(data))
        except ConfigError as exc:
            message = str(exc)
            assert "calibration.r_w_per_100km.biomas:" in message and "elec_price" in message
        else:
            pytest.fail("expected a ConfigError")

    @pytest.mark.parametrize("key, text", [
        ("ccs_capital_total", "-120.0e6 $"),
    ])
    def test_negative_calibration_total_is_an_error(self, key, text):
        data = preset_dict()
        data["calibration"][key] = text
        with pytest.raises(ConfigError, match=rf"calibration: {key} must be finite and >= 0"):
            load_config_text(yaml.safe_dump(data))

    def test_calibration_friction_takes_the_dimensionless_rule(self):
        data = preset_dict()
        data["calibration"]["r_w_per_100km"]["coal"] = -0.1
        with pytest.raises(ConfigError, match=r"calibration: r_w_per_100km\[coal\] must be"):
            load_config_text(yaml.safe_dump(data))
        data["calibration"]["r_w_per_100km"]["coal"] = "0.1"   # as econ.r_w_per_100km takes it
        assert load_config_text(yaml.safe_dump(data)).calibration.r_w_per_100km["coal"] == 0.1

    def test_transfer_mode_parses_distance(self):
        data = preset_dict()
        data["water"] = {"mode": "network_transfer", "distance": "250 km"}
        cfg = load_config_text(yaml.safe_dump(data))
        assert isinstance(cfg.water_mode, NetworkTransfer)
        assert cfg.water_mode.distance.value_in("km") == 250.0

    @pytest.mark.parametrize("mode", ["desalination", "solar_seawater"])
    def test_distance_outside_transfer_mode_is_an_error(self, mode):
        # the key would change nothing and the dump would drop it
        data = preset_dict()
        data["water"] = {"mode": mode, "distance": "10 km"}
        data["econ"]["c_sw"] = "90000 $/(m3/h)"
        with pytest.raises(ConfigError, match=rf"water\.distance: {mode} mode takes no distance"):
            load_config_text(yaml.safe_dump(data))

    @pytest.mark.parametrize("distance", ["nan km", "10 kg", "ten km", 10])
    def test_malformed_transfer_distance_is_reported_once(self, distance):
        data = preset_dict()
        data["water"] = {"mode": "network_transfer", "distance": distance}
        with pytest.raises(ConfigError) as info:
            load_config_text(yaml.safe_dump(data))
        lines = [line for line in str(info.value).splitlines() if "water.distance" in line]
        assert len(lines) == 1 and "required" not in lines[0], lines

    def test_missing_transfer_distance_is_required(self):
        data = preset_dict()
        data["water"] = {"mode": "network_transfer"}
        with pytest.raises(ConfigError, match=r"water\.distance: required for "
                                              r"network_transfer \(expected km\)"):
            load_config_text(yaml.safe_dump(data))

    def test_negative_transfer_distance_is_a_config_error(self):
        data = preset_dict()
        data["water"] = {"mode": "network_transfer", "distance": "-5 km"}
        data["econ"]["c_wind"] = "-1 $/kW"
        with pytest.raises(ConfigError) as info:
            load_config_text(yaml.safe_dump(data))
        assert "water: transfer distance must be >= 0" in str(info.value)
        assert "c_wind" in str(info.value)   # reported together with the other errors

    @pytest.mark.parametrize("betas", [[0.0, 1.0], [0.5, 0]])
    def test_zero_sweep_beta_is_the_storage_row(self, betas):
        data = preset_dict()
        data["sweep"]["betas"] = betas
        with pytest.raises(ConfigError, match=rf"sweep\.betas\[{betas.index(0)}\]: beta 0 is the "
                                              "storage row"):
            load_config_text(yaml.safe_dump(data))

    def test_unknown_config_source_is_a_config_error(self):
        with pytest.raises(ConfigError, match="preset"):
            load_config("no-such-file.yaml")

    @pytest.mark.parametrize("path, value, message", [
        (("econ",), "0.25 $/kWh", "econ: must be a mapping"),
        (("water",), ["desalination"], "water: must be a mapping"),
        (("econ", "e_des"), ["3.5 kWh/m3"] * 3,
         "econ.e_des: expected a list of exactly 4 '<value> kWh/m3' entries"),
        (("econ", "e_des"), "3.5 kWh/m3",
         "econ.e_des: expected a list of exactly 4 '<value> kWh/m3' entries"),
        (("econ", "product_prices"), "1400 $/ton",
         "econ.product_prices: must map names to '<value> $/ton'"),
        (("calibration", "r_w_per_100km"), 0.2,
         "calibration.r_w_per_100km: must map names to '<value> dimensionless'"),
        (("econ", "horizon_years"), 2.5, "econ: horizon_years must be an integer >= 1, got 2.5"),
        (("econ", "eta_pump"), 1.5, "econ: eta_pump must lie in (0, 1]"),
        (("econ", "r_w_per_100km"), -0.1, "econ: r_w_per_100km must be finite and >= 0, got -0.1"),
        (("policy", "include_hydrogen_capital"), "yes",
         "policy: include_hydrogen_capital must be true or false, got 'yes'"),
        (("econ", "elec_price"), "abc $/kWh", "econ.elec_price: 'abc' is not a number"),
        (("econ", "elec_price"), "0.25", "econ.elec_price: expected '<value> $/kWh', got '0.25'"),
        (("plants",), {"name": "coal"},
         "plants: must be a non-empty list of {name, capacity, emission_factor}"),
        (("plants", 1), "natural_gas", "plants[1]: must be a mapping"),
        (("plants", 1), {"capacity": "500 MW", "emission_factor": "490 g/kWh"},
         "plants[1]: plant name must be a non-empty string, got None"),
        (("plants", 1, "name"), "", "plants[1]: plant name must be a non-empty string, got ''"),
        (("products",), "methane", "products: must be a list of product names"),
        (("sweep", "betas"), [], "sweep.betas: must be a non-empty list of numbers"),
        (("sweep", "betas"), 0.5, "sweep.betas: must be a non-empty list of numbers"),
        (("plants", 1, "capacity"), ["500 MW"],
         "plants[1].capacity: expected a '<value> kW' string, got ['500 MW']"),
        ((), ["econ", "plants"], "config must be a YAML mapping at the top level"),
    ])
    def test_malformed_shape_names_the_path(self, path, value, message):
        data = preset_dict()
        if path:
            *parents, last = path
            target = data
            for key in parents:
                target = target[key]
            target[last] = value
        else:
            data = value
        with pytest.raises(ConfigError) as err:
            load_config_text(yaml.safe_dump(data))
        assert message in [line.strip() for line in str(err.value).splitlines()]


class TestRoundTrip:
    def test_export_reload_is_bit_identical(self):
        cfg = paper_2024()
        text = dump_config(cfg)
        cfg2 = load_config_text(text)
        assert sweep_csv(cfg) == sweep_csv(cfg2)
        # and the re-export is a fixed point
        assert dump_config(cfg2) == text

    def test_transfer_mode_config_round_trips(self):
        data = preset_dict()
        data["water"] = {"mode": "network_transfer", "distance": "250 km"}
        cfg = load_config_text(yaml.safe_dump(data))
        cfg2 = load_config_text(dump_config(cfg))
        assert isinstance(cfg2.water_mode, NetworkTransfer)
        assert sweep_csv(cfg) == sweep_csv(cfg2)

    def test_transfer_distance_keeps_the_unit_it_was_written_in(self):
        # 256480 m rescaled to km and back is 256480.00000000003 m
        data = preset_dict()
        data["water"] = {"mode": "network_transfer", "distance": "256480 m"}
        cfg = load_config_text(yaml.safe_dump(data))
        assert cfg.water_mode == NetworkTransfer(Quantity(256480.0, "m"))
        assert cfg.water_mode.m == 256480.0
        assert "distance: 256480.0 m\n" in dump_config(cfg)
        built = dataclasses.replace(paper_2024(), water_mode=cfg.water_mode)
        assert load_config_text(dump_config(built)) == built == cfg

    def test_preset_reloads_equal(self):
        cfg = paper_2024()
        assert load_config_text(dump_config(cfg)) == cfg

    @staticmethod
    def held_twice(cfg) -> list:
        """Each container that the document ``dump_config(cfg)`` hands to ``yaml.safe_dump``
        holds again, by object id: ``yaml.dump`` writes a second one as an alias, and
        ``_yaml.safe_dump`` in full."""
        with mock.patch.object(config.yaml, "safe_dump", return_value="") as safe_dump:
            dump_config(cfg)
        seen, twice, stack = set(), [], list(safe_dump.call_args.args)
        while stack:
            node = stack.pop()
            if isinstance(node, (dict, list)):
                if id(node) in seen:
                    twice.append(node)
                    continue
                seen.add(id(node))
                stack += node.values() if isinstance(node, dict) else node
        return twice

    @pytest.mark.parametrize("source", ["preset", "dump_solar.yaml", "dump_transfer.yaml"])
    def test_a_dump_holds_no_container_twice(self, source):
        cfg = (paper_2024() if source == "preset"
               else load_config_text((GOLDEN / source).read_text(encoding="utf-8")))
        assert self.held_twice(cfg) == []

    @settings(max_examples=60, deadline=None)
    @given(cfg=jittered_configs())
    def test_a_jittered_dump_holds_no_container_twice(self, cfg):
        assert self.held_twice(cfg) == []

    def test_every_optional_field_reloads_equal(self):
        # fields the sweep of this config never reads must survive too
        data = preset_dict()
        del data["calibration"]["ccs_capital_total"]   # which c_ccs may not be given with
        data["econ"]["c_ccs"] = "43080 $/(ton/day)"
        data["econ"]["c_sw"] = "90000 $/(m3/h)"
        data["policy"]["include_hydrogen_capital"] = True
        data["water"] = {"mode": "network_transfer", "distance": "250 km"}
        cfg = load_config_text(yaml.safe_dump(data))
        assert cfg.econ.c_sw == 90000.0 and cfg.econ.include_hydrogen_capital
        assert load_config_text(dump_config(cfg)) == cfg


def without_product(cfg, name):
    """``cfg`` with ``name`` dropped from its price map."""
    prices = {k: v for k, v in cfg.econ.product_prices.items() if k != name}
    return dataclasses.replace(cfg, econ=dataclasses.replace(cfg.econ, product_prices=prices))


# name -> (an edit of the preset document, the same edit of the loaded preset)
RULE_EDITS = {
    "solar-without-c_sw": (lambda d: d.update(water={"mode": "solar_seawater"}),
                           lambda c: dataclasses.replace(c, water_mode=SolarSeawater())),
    "product-without-price": (lambda d: d["econ"]["product_prices"].pop("ethanol"),
                              lambda c: without_product(c, "ethanol")),
    "c_ccs-with-capital-total": (
        lambda d: d["econ"].update(c_ccs="1 $/(ton/day)"),
        lambda c: dataclasses.replace(c, econ=dataclasses.replace(c.econ, c_ccs=1.0))),
    "calibration-of-dropped-plants": (lambda d: d.update(plants=d["plants"][:1]),
                                      lambda c: dataclasses.replace(c, plants=c.plants[:1])),
    "repeated-plant": (lambda d: d["plants"].append(d["plants"][0]),
                       lambda c: dataclasses.replace(c, plants=c.plants + c.plants[:1])),
    "repeated-product": (lambda d: d["products"].append("methane"),
                         lambda c: dataclasses.replace(c, products=c.products + c.products[:1])),
    "zero-beta": (lambda d: d["sweep"].update(betas=[0.0, 1.0]),
                  lambda c: dataclasses.replace(c, sweep_betas=(0.0, 1.0))),
    "repeated-beta": (lambda d: d["sweep"].update(betas=[0.5, 0.5]),
                      lambda c: dataclasses.replace(c, sweep_betas=(0.5, 0.5))),
    "beta-above-one": (lambda d: d["sweep"].update(betas=[0.5, 1.5]),
                       lambda c: dataclasses.replace(c, sweep_betas=(0.5, 1.5))),
    "no-plants": (lambda d: d.update(plants=[]), lambda c: dataclasses.replace(c, plants=())),
    **{f"plant-name-{tag}": (
        lambda d, n=name: d["plants"].append(dict(d["plants"][0], name=n)),
        lambda c, n=name: dataclasses.replace(
            c, plants=c.plants + (dataclasses.replace(c.plants[0], name=n),)))
       for tag, name in (("with-comma", "bio,mass"), ("with-quote", 'bio"mass'),
                         ("with-newline", "bio\nmass"))},
    "no-betas": (lambda d: d["sweep"].update(betas=[]),
                 lambda c: dataclasses.replace(c, sweep_betas=())),
}


def mostly(valid, invalid):
    """Draws of ``valid`` three times in four, else of ``invalid``."""
    return st.integers(0, 3).flatmap(lambda k: invalid if k == 3 else valid)


def distinct_or_not(elements):
    """Lists of ``elements``, most of them without a repeat."""
    return mostly(st.lists(elements, max_size=3, unique=True),
                  st.lists(elements, min_size=2, max_size=4))


NOT_WATER_MODES = (None, "desalination", Desalination)
# products a replace can build that no config file can name: a dump of 'formic' would not
# reload, and one of this methane would reload as the built-in, unequal
NOT_BUILT_IN = (ProductSpec("formic", {"C": 1, "H": 2, "O": 2}),
                ProductSpec("methane", METHANE.formula))


class TestConfigRules:
    """A config built by ``dataclasses.replace`` obeys the rules a loaded one does."""

    @pytest.mark.parametrize("edit, message", [
        ({"water_mode": None}, "water_mode: unsupported water mode None"),
        ({"water_mode": "desalination"}, "water_mode: unsupported water mode 'desalination'"),
        ({"water_mode": Desalination}, "water_mode: unsupported water mode <class"),
        ({"econ": None}, "econ: must be an EconParams, got None"),
        ({"calibration": None}, "calibration: must be a Calibration, got None"),
        ({"plants": ("coal",)}, "plants: must be a tuple of PlantSpec, got ('coal',)"),
        ({"products": None, "sweep_betas": [0.5]},
         "products: must be a tuple of ProductSpec, got None\n"
         "  sweep_betas: must be a tuple, got [0.5]"),
    ], ids=["mode-none", "mode-name", "mode-class", "econ-none", "calibration-none",
            "plant-name", "products-none-and-betas-list"])
    def test_replace_with_a_field_of_another_type_raises_naming_it(self, edit, message):
        # _config_errors reads a None section as one that failed to load, and skips its rules
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(paper_2024(), **edit)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("product", NOT_BUILT_IN, ids=["formic", "methane-rebuilt"])
    def test_a_product_that_is_not_a_built_in_raises_naming_it(self, product):
        cfg = paper_2024()
        prices = {**cfg.econ.product_prices, product.name: 100.0}
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(cfg, products=(cfg.products[1], product),
                                econ=dataclasses.replace(cfg.econ, product_prices=prices))
        assert str(info.value) == (f"products[1]: {product.name!r} differs from every "
                                   "built-in product")

    @pytest.mark.parametrize("name", [None, 7, ""])
    def test_a_plant_name_that_is_not_a_string_raises_naming_it(self, name):
        # an empty name once built a config whose dump did not reload
        cfg = paper_2024()
        with pytest.raises(DomainError) as info:
            dataclasses.replace(cfg, plants=(dataclasses.replace(cfg.plants[0], name=name),))
        assert str(info.value) == f"plant name must be a non-empty string, got {name!r}"

    @pytest.mark.parametrize("key, unit", [row[1:3] for row in config._FIELDS
                                           if row[2] in ("int", "bool")])
    def test_every_int_and_bool_key_is_checked_by_econ_params(self, key, unit):
        # the loader passes these values through as read, so EconParams states their rules;
        # a string flag once priced the electrolyzer, and a True horizon one year
        cfg = paper_2024()
        for value in (20.0, {"int": True, "bool": 1}[unit], "no", None):
            with pytest.raises(DomainError) as info:
                dataclasses.replace(cfg.econ_for(cfg.plant("coal")), **{key: value})
            assert str(info.value).startswith(f"{key} must be ")
            assert str(info.value).endswith(f", got {value!r}")

    @pytest.mark.parametrize("key, unit", [row[1:3] for row in config._FIELDS
                                           if row[0] == "econ" and row[2] != "int"])
    @pytest.mark.parametrize("value", [True, "0.9", [0.9]], ids=["bool", "string", "list"])
    def test_every_number_of_econ_params_is_an_int_or_a_float(self, key, unit, value):
        # a True eta_pump once built, priced as 1.0 and dumped a file that did not reload;
        # a string one raised a TypeError
        econ = paper_2024().econ
        name, edit = key, value
        if unit.startswith("[4] "):   # one entry of the list
            name, edit = f"{key}[3]", (*econ.e_des[:2], value, econ.e_des[3])
        elif unit.startswith("{} "):   # one price of the map
            name, edit = f"{key}[methane]", {**econ.product_prices, "methane": value}
        with pytest.raises(DomainError) as info:
            dataclasses.replace(econ, **{key: edit})
        assert str(info.value) == f"{name} must be a number, got {value!r}"

    def test_an_int_is_a_number(self):
        econ = dataclasses.replace(paper_2024().econ, eta_pump=1, c_wind=1030, e_des=(3, 4, 4, 5))
        assert (econ.eta_pump, econ.c_wind, econ.e_des) == (1, 1030, (3.0, 4.0, 4.0, 5.0))

    @pytest.mark.parametrize("build, field", [
        (lambda cfg: dataclasses.replace(cfg.econ, product_prices=None), "product_prices"),
        (lambda cfg: Calibration(cfg.calibration.ccs_capital_total, None), "r_w_per_100km"),
    ], ids=["product-prices", "friction"])
    def test_a_none_map_raises_naming_it(self, build, field):
        with pytest.raises(DomainError) as info:
            build(paper_2024())
        assert str(info.value) == f"{field} must be a map of names to numbers, got None"

    @pytest.mark.parametrize("edit_text, edit_config", RULE_EDITS.values(), ids=RULE_EDITS)
    def test_replace_raises_the_loaders_lines(self, edit_text, edit_config):
        data = preset_dict()
        edit_text(data)
        with pytest.raises(ConfigError) as loaded:   # keeps the preset's calibration order
            load_config_text(yaml.safe_dump(data, sort_keys=False))
        with pytest.raises(ConfigError) as built:
            edit_config(paper_2024())
        assert str(loaded.value) == "invalid config:\n  " + str(built.value)

    @pytest.mark.parametrize("section", ["plants", "econ"])
    def test_a_missing_required_section_is_one_error(self, section):
        # the rules that read the missing section, the calibration's among them, are skipped
        data = preset_dict()
        del data[section]
        with pytest.raises(ConfigError) as info:
            load_config_text(yaml.safe_dump(data))
        assert str(info.value) == f"invalid config:\n  {section}: missing required section"

    def test_a_config_without_products_sweeps_its_storage_rows(self):
        data = preset_dict()
        del data["products"]
        cfg = load_config_text(yaml.safe_dump(data))
        assert cfg.products == ()
        assert cfg.sweep() == tuple(c for c in paper_2024().sweep() if not c.product)

    # each edit is drawn valid more often than not, so that some draws reach the round
    # trip: 5 to 19 of 250 in seven seeded runs, 6 to 36 before eta_pump was drawn (and
    # 9 to 15 of 100 before the flag, horizon and name edits were); a bool or string
    # eta_pump stands for every number of EconParams
    @settings(max_examples=250, deadline=None)
    @given(plants=distinct_or_not(st.sampled_from(range(3))),
           products=distinct_or_not(st.sampled_from(["methane", "methanol", "ethanol",
                                                     *NOT_BUILT_IN])),
           betas=mostly(st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=3,
                                 unique=True),
                        st.lists(st.sampled_from([0.0, 0.5, 1.5]), max_size=3)),
           mode=st.sampled_from([Desalination(), SolarSeawater()])
           | st.builds(NetworkTransfer, st.builds(Quantity, st.floats(0.0, 500.0),
                                                  st.just("km"))
                       | st.builds(Quantity, st.floats(0.0, 500_000.0), st.just("m")))
           | st.sampled_from(NOT_WATER_MODES),
           c_sw=mostly(st.floats(0.0, 1e6), st.none()), c_ccs=st.none() | st.floats(0.0, 1e5),
           eta_pump=mostly(st.floats(0.05, 1.0) | st.just(1),
                           st.sampled_from([True, False, "0.9", 0.9, 1.0])),
           unpriced=mostly(st.none(), st.sampled_from(["methane", "methanol", "ethanol"])),
           friction=mostly(st.sampled_from(["configured plants", "none"]),
                           st.just("preset plants")),
           flag=mostly(st.booleans(), st.sampled_from(["no", 1, None])),
           horizon=mostly(st.integers(1, 60), st.sampled_from([True, 20.0, 2.5, "20"])),
           unnamed=mostly(st.none(), st.sampled_from(range(3))))
    # each product that no file can name, in a config that is valid but for it
    @example(plants=[0], products=[NOT_BUILT_IN[0]], betas=[0.5], mode=Desalination(),
             c_sw=None, c_ccs=None, eta_pump=0.9, unpriced=None, friction="none", flag=False,
             horizon=20, unnamed=None)
    @example(plants=[0], products=[NOT_BUILT_IN[1]], betas=[0.5], mode=Desalination(),
             c_sw=None, c_ccs=None, eta_pump=0.9, unpriced=None, friction="none", flag=False,
             horizon=20, unnamed=None)
    def test_every_replace_edit_raises_or_round_trips(self, plants, products, betas, mode,
                                                      c_sw, c_ccs, eta_pump, unpriced,
                                                      friction, flag, horizon, unnamed):
        base = paper_2024()
        prices = {k: v for k, v in base.econ.product_prices.items() if k != unpriced}
        prices["formic"] = 300.0   # so that only the product rule can reject it
        try:   # a type's own rule raises before any config is built
            chosen = tuple(dataclasses.replace(base.plants[i], name="") if i == unnamed
                           else base.plants[i] for i in plants)
            econ = dataclasses.replace(base.econ, c_sw=c_sw, c_ccs=c_ccs, eta_pump=eta_pump,
                                       product_prices=prices, include_hydrogen_capital=flag,
                                       horizon_years=horizon)
        except DomainError:
            return
        kept = {"preset plants": set(base.calibration.r_w_per_100km), "none": set(),
                "configured plants": {p.name for p in chosen}}[friction]
        r_w = {k: v for k, v in base.calibration.r_w_per_100km.items() if k in kept}
        try:   # a config's own rules raise a ConfigError, never a bare DomainError
            cfg = dataclasses.replace(
                base, plants=chosen, products=tuple(
                    base.product(p) if isinstance(p, str) else p for p in products),
                sweep_betas=tuple(betas), water_mode=mode, econ=econ,
                calibration=Calibration(
                    base.calibration.ccs_capital_total if c_ccs is None else None, r_w))
        except ConfigError:
            return
        assert not any(mode is m for m in NOT_WATER_MODES)
        reloaded = load_config_text(dump_config(cfg))
        assert reloaded == cfg
        assert sweep_csv(reloaded) == sweep_csv(cfg)


class TestCli:
    def run_cli(self, *argv) -> tuple[int, str, str]:
        import io
        from contextlib import redirect_stderr, redirect_stdout
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(list(argv))
        return status, out.getvalue(), err.getvalue()

    def test_sweep_csv_schema_and_cardinality(self):
        status, out, _ = self.run_cli("--config", "paper-2024", "--command", "sweep",
                                      "--format", "csv")
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + 21
        storage = lines[1].split(",")
        assert storage[0] == "biomass" and storage[1] == "" and storage[2] == "0.0"

    def test_sweep_csv_deterministic(self):
        a = self.run_cli("--config", "paper-2024", "--command", "sweep", "--format", "csv")
        b = self.run_cli("--config", "paper-2024", "--command", "sweep", "--format", "csv")
        assert a == b

    def test_sweep_json_parses(self):
        status, out, _ = self.run_cli("--config", "paper-2024", "--command", "sweep",
                                      "--format", "json")
        assert status == 0
        rows = json.loads(out)
        assert len(rows) == 21
        assert set(rows[0]) == set(SWEEP_CSV_HEADER.split(","))

    @settings(max_examples=40, deadline=None)
    @given(cfg=jittered_configs())
    def test_sweep_prints_the_rows_of_the_library_sweeps_ledgers(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "jittered.yaml"
            path.write_text(dump_config(cfg), encoding="utf-8")
            rows = [ledger_row(cell) for cell in load_config(str(path)).sweep()]
            errors = "".join(f"error: {row['error']}\n" for row in rows if "error" in row)
            for fmt in ("table", "csv", "json"):
                assert self.run_cli("--config", str(path), "--command", "sweep",
                                    "--format", fmt) == (
                    3 if errors else 0, render_output(COMMANDS["sweep"], fmt, rows), errors)

    def test_breakeven_single_value_report(self):
        status, out, _ = self.run_cli("--config", "paper-2024", "--command", "breakeven",
                                      "--plant", "biomass", "--format", "json")
        assert status == 0
        payload = json.loads(out)
        target = reference_entry("breakeven_distance_km", "biomass")["value"]
        assert payload["breakeven_distance_km"] == pytest.approx(float(target), abs=0.5)

    def test_curve_emits_reference_distances(self, tmp_path):
        out_path = tmp_path / "curve.csv"
        status, _, _ = self.run_cli("--config", "paper-2024", "--command", "curve",
                                    "--plant", "biomass",
                                    "--distances", "60,260,300", "--format", "csv",
                                    "--out", str(out_path))
        assert status == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("distance_km,flow_m3_per_h")
        distances = {line.split(",")[0] for line in lines[1:]}
        assert distances == {"60.0", "260.0", "300.0"}

    def test_scorecard_table_is_its_csv(self):
        _, table, _ = self.run_cli("--config", "paper-2024", "--command", "scorecard")
        status, out, err = self.run_cli("--config", "paper-2024", "--command", "scorecard",
                                        "--format", "csv")
        assert (status, err, table) == (0, "", out)
        lines = out.splitlines()
        assert lines[0] == ("quantity,plant,product,beta,computed,reference,tolerance,"
                            "relative_error,gap_usd_per_ton,pass")
        assert len(lines) == 1 + 96
        assert lines[-1].startswith("xi_h,,ethanol,,") and lines[-1].endswith(",,True")

    def test_scorecard_row_of_a_missing_product_is_an_error(self, tmp_path):
        # every reference value of ethanol, which the config leaves out, is an error row:
        # reported on stderr and left out of the CSV
        cfg = paper_2024()
        path = tmp_path / "no_ethanol.yaml"
        path.write_text(dump_config(dataclasses.replace(cfg, products=cfg.products[:2])))
        status, out, err = self.run_cli("--config", str(path), "--command", "scorecard",
                                        "--format", "csv")
        errors = err.splitlines()
        assert status == 3 and len(errors) == 9 + 18 + 1
        assert errors[0] == ("error: h2_ton_per_h (biomass, ethanol): unknown product "
                             "'ethanol'; configured products are ['methane', 'methanol']")
        assert len(out.splitlines()) == 1 + 96 - len(errors)
        assert ",ethanol," not in out

    def test_decide_table_is_its_csv_and_plant_picks_its_four_rows(self):
        _, table, _ = self.run_cli("--config", "paper-2024", "--command", "decide")
        status, out, err = self.run_cli("--config", "paper-2024", "--command", "decide",
                                        "--format", "csv")
        assert (status, err, table) == (0, "", out)
        assert out.splitlines()[0] == (
            "plant,question,winner,runner_up,gap_usd_per_day,beta,breakeven_km,"
            "c_sw_tie_usd_per_m3_h,penalty_usd_per_ton,runner_up_penalty_usd_per_ton")
        status, coal, err = self.run_cli("--config", "paper-2024", "--command", "decide",
                                         "--format", "csv", "--plant", "coal")
        assert (status, err) == (0, "")
        assert coal.splitlines() == out.splitlines()[:1] + [
            line for line in out.splitlines() if line.startswith("coal,")]
        assert [line.split(",")[1] for line in coal.splitlines()[1:]] == [
            "fate", "product", "water", "penalty"]

    def test_decide_for_an_unknown_plant_exits_2(self):
        status, out, err = self.run_cli("--config", "paper-2024", "--command", "decide",
                                        "--plant", "lignite")
        assert (status, out) == (2, "")
        assert err.startswith("config error: unknown plant 'lignite'; configured plants are")

    def test_penalty_store_all(self):
        status, out, _ = self.run_cli("--config", "paper-2024", "--command", "penalty",
                                      "--plant", "biomass", "--format", "json")
        assert status == 0
        # within acceptance A8's tolerance of the printed biomass storage penalty
        entry = reference_entry("carbon_penalty_usd_per_ton", "biomass", beta=0.0)
        assert json.loads(out)["penalty_threshold_usd_per_ton"] == pytest.approx(
            float(entry["value"]), rel=float(entry["tolerance"].rstrip("%")) / 100)

    def test_scenario_command(self):
        status, out, _ = self.run_cli("--config", "paper-2024", "--command", "scenario",
                                      "--plant", "biomass", "--product", "methane",
                                      "--beta", "1", "--format", "json")
        assert status == 0
        row = json.loads(out)[0]
        assert row["daily_cost_usd_per_day"] < 0

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        data = preset_dict()
        data["econ"]["mystery_knob"] = 3
        bad.write_text(yaml.safe_dump(data))
        status, _, err = self.run_cli("--config", str(bad), "--command", "sweep")
        assert status == 2
        assert "mystery_knob" in err

    @pytest.mark.parametrize("command", ["sweep", "scenario", "penalty"])
    def test_zero_emission_factor_exits_2_with_the_plant_path(self, command, tmp_path):
        data = preset_dict()
        data["plants"][1]["emission_factor"] = "0 g/kWh"
        path = tmp_path / "clean.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", command,
                                        "--plant", "natural_gas")
        assert (status, out) == (2, "")
        assert "plants[1]: plant 'natural_gas': emission_factor must be positive" in err

    def test_duplicate_plant_or_product_name_exits_2(self, tmp_path):
        data = preset_dict()
        data["plants"].append(dict(data["plants"][0], emission_factor="820 g/kWh"))
        data["products"] = ["methane", "methane", "ethanol"]
        path = tmp_path / "dupes.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", "sweep")
        assert (status, out) == (2, "")
        assert "plants[3].name: duplicate plant name 'biomass' (first at plants[0])" in err
        assert "products[1]: duplicate product 'methane' (first at products[0])" in err

    @pytest.mark.parametrize("name", ["bio,mass", 'bio"mass', "bio\nmass", "bio\tmass"])
    def test_plant_name_that_breaks_a_csv_row_exits_2(self, name, tmp_path):
        data = preset_dict()
        data["plants"][0]["name"] = name
        data["calibration"]["r_w_per_100km"][name] = (
            data["calibration"]["r_w_per_100km"].pop("biomass"))
        path = tmp_path / "names.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", "sweep",
                                        "--format", "csv")
        assert (status, out) == (2, "")
        assert err == (f"config error: invalid config:\n  plants[0].name: plant name {name!r} "
                       "must be printable and contain no ',' or '\"'\n")

    def test_product_without_a_price_exits_2(self, tmp_path):
        data = preset_dict()
        del data["econ"]["product_prices"]["methanol"]
        path = tmp_path / "unpriced.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", "sweep")
        assert (status, out) == (2, "")
        assert err == ("config error: invalid config:\n  econ.product_prices.methanol: no market "
                       "price ($/ton) configured for product 'methanol'\n")

    def test_unknown_plant_exits_2(self):
        status, out, err = self.run_cli("--config", "paper-2024", "--command", "scenario",
                                        "--plant", "lignite")
        assert (status, out) == (2, "")
        assert err == ("config error: unknown plant 'lignite'; configured plants are "
                       "['biomass', 'natural_gas', 'coal']\n")

    @pytest.mark.parametrize("command", ["scenario", "breakeven", "sweep", "penalty"])
    def test_plant_whose_capacity_overflows_exits_2(self, command, tmp_path):
        data = preset_dict()
        data["plants"][0]["capacity"] = "1e308 MW"
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(data))
        argv = ("--plant", "biomass") if command != "sweep" else ()
        status, out, err = self.run_cli("--config", str(path), "--command", command, *argv)
        assert (status, out) == (2, "")
        assert "plants[0]: plant 'biomass': capacity in kW and full-load carbon rate" in err

    @pytest.mark.parametrize("command", ["scenario", "breakeven", "sweep", "penalty"])
    def test_plant_whose_carbon_rate_underflows_exits_2(self, command, tmp_path):
        data = preset_dict()
        data["plants"][0].update(capacity="1e-300 kW", emission_factor="1e-300 kg/kWh")
        path = tmp_path / "zero.yaml"
        path.write_text(yaml.safe_dump(data))
        argv = ("--plant", "biomass") if command != "sweep" else ()
        status, out, err = self.run_cli("--config", str(path), "--command", command, *argv)
        assert (status, out) == (2, "")
        assert ("plants[0]: plant 'biomass': full-load carbon rate must be positive, "
                "got 0.0 ton/h") in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_curve_distance_that_overflows_exits_3(self, fmt):
        status, out, err = self.run_cli("--config", "paper-2024", "--command", "curve",
                                        "--plant", "biomass", "--distances", "60,1e308",
                                        "--format", fmt)
        assert (status, out) == (3, "")
        assert err == ("computation error: transfer distance must be finite in km and m, "
                       "got 1e+308 km\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_curve_cost_that_overflows_is_an_error_cell(self, fmt, tmp_path):
        # the rates are finite, but the cubic pumping bill of every flow above 0 is not
        data = preset_dict()
        data["plants"][0]["capacity"] = "1e302 MW"
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", "curve",
                                        "--plant", "biomass", "--distances", "10",
                                        "--format", fmt)
        assert status == 3
        lines = err.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("error: cell (d=10 km, f=") and line.endswith(
            " m3/h): operational cost must be finite, got inf $/day") for line in lines)
        assert "inf" not in out.lower()
        if fmt == "json":
            flows = [row["flow_m3_per_h"] for row in json.loads(out)]
        else:
            flows = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert flows == [0.0]   # the zero-flow row is finite and kept

    def test_repeated_sweep_beta_exits_2(self, tmp_path):
        data = preset_dict()
        data["sweep"]["betas"] = [0.5, 0.5, 1.0]
        path = tmp_path / "repeated.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", "sweep")
        assert (status, out) == (2, "")
        assert "sweep.betas[1]: repeated reuse fraction 0.5 (first at sweep.betas[0])" in err

    @pytest.mark.parametrize("flag, value", [
        ("--distances", "60,abc"), ("--flows", "10,,x"),
        ("--distances", "nan"), ("--distances", "60,inf"), ("--flows", "1,-inf"),
        # an empty entry is read, and fails, as any other entry
        ("--distances", "60,"), ("--distances", "1,,2"), ("--flows", ""), ("--distances", ""),
    ])
    def test_malformed_number_list_exits_2(self, flag, value):
        argv = ["--config", "paper-2024", "--command", "curve", "--plant", "biomass",
                "--distances", "60,260"]
        if flag == "--distances":
            argv = argv[:-2]
        status, out, err = self.run_cli(*argv, flag, value)
        assert (status, out) == (2, "")
        assert err == (f"config error: {flag}: expected a comma-separated list of "
                       f"finite numbers, got {value!r}\n")

    @pytest.mark.parametrize("command", ["sweep", "breakeven", "penalty"])
    def test_negative_calibration_value_exits_2(self, command, tmp_path):
        data = preset_dict()
        data["calibration"]["ccs_capital_total"] = "-120.0e6 $"
        path = tmp_path / "negative.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", command,
                                        "--plant", "biomass")
        assert (status, out) == (2, "")
        assert "calibration: ccs_capital_total must be finite and >= 0, got -120000000.0" in err

    def test_removed_pipe_calibration_key_exits_2(self, tmp_path):
        # the pipe is priced per meter by econ.c_tw; no per-cell pipe rule is left
        data = preset_dict()
        data["calibration"]["pipe_cost_per_m"] = "160 $/m"
        path = tmp_path / "pipe.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", "sweep")
        assert (status, out) == (2, "")
        assert "calibration.pipe_cost_per_m: unknown key" in err

    def test_capture_capital_errors_exit_2_naming_the_plant(self, tmp_path):
        data = preset_dict()
        data["econ"]["c_ccs"] = "1 $/(ton/day)"
        data["plants"].append({"name": "tiny", "capacity": "1e-305 kW",
                               "emission_factor": "820 g/kWh"})
        path = tmp_path / "capture.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", "sweep")
        assert (status, out) == (2, "")
        assert "econ.c_ccs: not allowed with calibration.ccs_capital_total" in err
        assert "plant 'tiny': calibrated c_ccs must be finite and >= 0, got inf" in err

    def test_computation_error_exits_3(self, tmp_path):
        # pipe so expensive that no break-even exists in the window
        data = preset_dict()
        data["econ"]["c_tw"] = "100000000 $/m"
        cfg_path = tmp_path / "nocross.yaml"
        cfg_path.write_text(yaml.safe_dump(data))
        status, _, err = self.run_cli("--config", str(cfg_path), "--command", "breakeven",
                                      "--plant", "biomass")
        assert status == 3
        assert "break-even" in err

    def test_io_error_exits_4(self):
        status, _, err = self.run_cli("--config", "paper-2024", "--command", "sweep",
                                      "--out", "/nonexistent-dir/x.csv")
        assert status == 4

    def test_config_that_is_not_utf8_exits_2_naming_the_path(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(PRESET_TEXT.encode("utf-8") + b"# caf\xe9 \xff\n")
        status, out, err = self.run_cli("--config", str(path), "--command", "sweep")
        assert (status, out) == (2, "")
        assert err.startswith(f"config error: config {str(path)!r} is not UTF-8 text: ")
        assert "can't decode byte 0xe9" in err

    @pytest.mark.parametrize("name", ["folder", "loop", "missing.yaml", "missing/cfg.yaml"])
    def test_odd_config_paths_exit_as_their_open_fails(self, tmp_path, name):
        (tmp_path / "folder").mkdir()
        os.symlink(tmp_path / "loop", tmp_path / "loop")   # a link to itself
        path = str(tmp_path / name)
        status, out, err = self.run_cli("--config", path, "--command", "sweep")
        if name.startswith("missing"):
            assert (status, out, err) == (2, "", f"config error: config {path!r} is neither a "
                                                 f"file nor a known preset (['paper-2024'])\n")
        else:
            code = errno.EISDIR if name == "folder" else errno.ELOOP
            assert (status, out, err) == (4, "", f"i/o error: [Errno {code}] "
                                                 f"{os.strerror(code)}: {path!r}\n")

    def test_empty_or_slash_ended_config_path_is_opened_as_given(self, tmp_path):
        # neither is read as a path that pathlib normalised: '' as '.', 'cfg.yaml/' as the file
        (tmp_path / "cfg.yaml").write_text(PRESET_TEXT)
        status, out, err = self.run_cli("--config", "", "--command", "sweep")
        assert (status, out, err) == (2, "", "config error: config '' is neither a file nor a "
                                             "known preset (['paper-2024'])\n")
        path = f"{tmp_path / 'cfg.yaml'}/"
        status, out, err = self.run_cli("--config", path, "--command", "sweep")
        assert (status, out, err) == (4, "", f"i/o error: [Errno {errno.ENOTDIR}] "
                                             f"{os.strerror(errno.ENOTDIR)}: {path!r}\n")

    def test_failing_curve_cell_keeps_csv_clean_and_reports_on_stderr(self):
        status, out, err = self.run_cli("--config", "paper-2024", "--command", "curve",
                                        "--plant", "biomass", "--distances", "60",
                                        "--flows", "90,999999", "--format", "csv")
        assert status == 3
        lines = out.strip().split("\n")
        assert lines[0].startswith("distance_km,")
        assert len(lines) == 2  # only the in-range flow produced a row
        assert all("error" not in line for line in lines)
        assert "999999" in err and "outside" in err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_out_of_capacity_curve_flows_exit_3_in_every_format(self, fmt):
        cfg = paper_2024()
        w_max = _reuse_rates(cfg.product("methane"), cfg.plant("biomass").cbar, 1.0)[1]
        flows = (0.5 * w_max, w_max, 1.5 * w_max, 999999.0)
        status, out, err = self.run_cli(
            "--config", "paper-2024", "--command", "curve", "--plant", "biomass",
            "--distances", "60,260", "--flows", ",".join(map(repr, flows)), "--format", fmt)
        assert status == 3
        bad = [f"error: cell (d={d:g} km, f={f:g} m3/h): " for d in (60.0, 260.0)
               for f in flows[2:]]
        lines = err.splitlines()
        assert len(lines) == len(bad)
        assert all(line.startswith(prefix) for line, prefix in zip(lines, bad))
        if fmt == "json":
            points = [(r["distance_km"], r["flow_m3_per_h"]) for r in json.loads(out)]
        else:   # the curve table is CSV
            points = [tuple(map(float, line.split(",")[:2])) for line in out.splitlines()[1:]]
        assert points == [(d, f) for d in (60.0, 260.0) for f in flows[:2]]

    @pytest.mark.parametrize("command", ["sweep", "scenario"])
    def test_capital_total_that_overflows_exits_3_naming_the_charge(self, command, tmp_path):
        # every capital item of a reuse cell is finite, but their sum overflows fsum
        data = preset_dict()
        data["plants"][0]["capacity"] = "1e302 MW"
        data["sweep"]["betas"] = [0.3359375]
        path = tmp_path / "huge_biomass.yaml"
        path.write_text(yaml.safe_dump(data))
        argv = ("--plant", "biomass", "--product", "methane", "--beta", "0.3359375")
        status, out, err = self.run_cli("--config", str(path), "--command", command,
                                        *(argv if command == "scenario" else ()))
        assert status == 3
        if command == "scenario":
            assert (out, err) == (
                "", "computation error: ledger amount must be finite (daily capital charge)\n")
            return
        assert err.splitlines() == [
            f"error: cell (biomass, {p}, beta=0.335938): ledger amount must be finite "
            "(daily capital charge)" for p in ("methane", "methanol", "ethanol")]
        rows = [line.split()[:4] for line in out.splitlines()[3:]]
        assert [r[:2] for r in rows if r[3] == "error:"] == [
            ["biomass", p] for p in ("methane", "methanol", "ethanol")]

    @pytest.mark.parametrize("argv", [
        ("sweep",), ("curve", "--plant", "coal", "--distances", "10"),
        ("breakeven", "--plant", "coal"), ("penalty", "--plant", "coal")],
        ids=["sweep", "curve", "breakeven", "penalty"])
    def test_capital_charge_that_overflows_exits_2(self, argv, tmp_path):
        data = preset_dict()
        data["econ"].update(interest_rate=1.0e10, horizon_years=100)
        path = tmp_path / "overflow.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", *argv)
        assert (status, out) == (2, "")
        assert err == ("config error: invalid config:\n  econ: interest_rate and horizon_years "
                       "overflow the capital charge (1 + interest_rate)^(horizon_years - 1) / "
                       "(365 horizon_years)\n")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_failing_sweep_cells_exit_3_in_every_format(self, fmt, tmp_path):
        # the config loads, but every methane cell's revenue overflows to inf
        data = preset_dict()
        data["econ"]["product_prices"]["methane"] = "1e308 $/ton"
        path = tmp_path / "huge_methane.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", "sweep",
                                        "--format", fmt)
        assert status == 3
        plants = [p["name"] for p in data["plants"]]
        failed = [(p, b) for p in plants for b in (0.5, 1)]
        assert err.splitlines() == [
            f"error: cell ({p}, methane, beta={b}): ledger amount must be finite "
            "(methane sales)" for p, b in failed]
        if fmt == "table":
            rows = [line.split()[:4] for line in out.splitlines()[3:]]
            assert [r[:3] for r in rows if r[3] == "error:"] == [
                [p, "methane", f"{b:g}"] for p, b in failed]
            assert len(rows) == 21
            return
        if fmt == "json":
            rows = [(r["plant"], r["product"]) for r in json.loads(out)]
        else:
            assert out.splitlines()[0] == SWEEP_CSV_HEADER
            rows = [tuple(line.split(",")[:2]) for line in out.splitlines()[1:]]
        assert len(rows) == 21 - len(failed)
        assert ("biomass", "methanol") in rows and all(r[1] != "methane" for r in rows)

    def test_required_flags_per_command(self):
        assert {name: command.required for name, command in COMMANDS.items()} == {
            "scenario": ("plant",), "sweep": (), "breakeven": ("plant",),
            "curve": ("plant", "distances"), "penalty": ("plant",), "scorecard": (),
            "decide": ()}

    @pytest.mark.parametrize("command, flag", [
        (name, flag) for name, command in COMMANDS.items() for flag in command.required])
    def test_missing_required_flag_exits_2(self, command, flag):
        values = {"plant": "biomass", "distances": "60"}
        given = [arg for other in COMMANDS[command].required if other != flag
                 for arg in (f"--{other}", values[other])]
        status, out, err = self.run_cli("--config", "paper-2024", "--command", command,
                                        *given)
        assert (status, out, err) == (2, "", f"config error: --{flag} is required for "
                                             f"'{command}'\n")

    def test_optional_flags_per_command(self):
        assert {name: command.optional for name, command in COMMANDS.items()} == {
            "scenario": ("product", "beta"), "sweep": (), "breakeven": ("product",),
            "curve": ("product", "flows"), "penalty": ("product",), "scorecard": (),
            "decide": ("plant",)}

    @pytest.mark.parametrize("command, argv, unread", [
        ("breakeven", ("--plant", "coal", "--beta", "0.3", "--flows", "1,2"), "--beta"),
        ("breakeven", ("--plant", "coal", "--flows", "1,2"), "--flows"),
        ("sweep", ("--plant", "coal", "--product", "methane"), "--plant"),
        ("sweep", ("--product", "methane"), "--product"),
        ("scenario", ("--plant", "coal", "--distances", "60"), "--distances"),
        ("curve", ("--plant", "coal", "--distances", "60", "--beta", "1"), "--beta"),
        ("penalty", ("--plant", "coal", "--beta", "1"), "--beta"),
        ("scorecard", ("--plant", "coal"), "--plant"),
        ("decide", ("--beta", "1"), "--beta"),
    ])
    def test_flag_the_command_does_not_read_exits_2(self, command, argv, unread):
        status, out, err = self.run_cli("--config", "paper-2024", "--command", command, *argv)
        assert (status, out, err) == (2, "", f"config error: '{command}' does not read {unread}\n")

    @pytest.mark.parametrize("beta", ["0", "0.0", "-0"])
    def test_product_with_zero_beta_exits_2(self, beta):
        # a zero reuse fraction is the storage row, which has no product
        status, out, err = self.run_cli("--config", "paper-2024", "--command", "scenario",
                                        "--plant", "coal", "--product", "methane",
                                        "--beta", beta)
        assert (status, out) == (2, "")
        assert err == "config error: --product needs --beta (reuse fraction in (0, 1])\n"

    @pytest.mark.parametrize("section, value, message", [
        ("water", {"mode": "desalination", "distance": "10 km"},
         "water.distance: desalination mode takes no distance"),
        ("water", {"mode": "network_transfer", "distance": "-5 km"},
         "water: transfer distance must be >= 0"),
        ("water", {"mode": "network_transfer", "distance": "1e308 km"},
         "water: transfer distance must be finite in km and m, got 1e+308 km"),
        ("sweep", {"betas": [0.0, 1.0]},
         "sweep.betas[0]: beta 0 is the storage row, which every plant gets"),
        ("water", {"mode": ["desalination"]},
         "water.mode: unknown mode ['desalination'] (allowed: "),
        ("water", {"mode": {"desalination": None}},
         "water.mode: unknown mode {'desalination': None} (allowed: "),
    ], ids=["distance-outside-transfer", "negative-distance", "overflowing-distance",
            "zero-beta", "mode-list", "mode-mapping"])
    def test_water_or_sweep_section_error_exits_2(self, section, value, message, tmp_path):
        data = preset_dict()
        data[section] = value
        path = tmp_path / "section.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", "sweep")
        assert (status, out) == (2, "")
        assert message in err

    def test_out_of_range_beta_flag_exits_2(self):
        status, _, err = self.run_cli("--config", "paper-2024", "--command", "scenario",
                                      "--plant", "biomass", "--product", "methane",
                                      "--beta", "1.5")
        assert status == 2
        assert "--beta" in err

    @pytest.mark.parametrize("beta", ["1.5", "-0.1", "nan"])
    def test_beta_flag_outside_the_reuse_range_exits_2_with_the_beta_rule(self, beta):
        status, out, err = self.run_cli("--config", "paper-2024", "--command", "scenario",
                                        "--plant", "biomass", "--product", "methane",
                                        "--beta", beta)
        assert (status, out) == (2, "")
        assert err == (f"config error: --beta: reuse fraction must lie in [0, 1], "
                       f"got {float(beta)!r}\n")

    @pytest.mark.parametrize("argv, message", [
        (("--product", "methane"), "--product needs --beta"),
        (("--beta", "0.5"), "--beta 0.5 needs --product"),
    ], ids=["product-without-beta", "beta-without-product"])
    def test_product_without_beta_exits_2(self, argv, message):
        status, out, err = self.run_cli("--config", "paper-2024", "--command", "scenario",
                                        "--plant", "biomass", *argv)
        assert (status, out) == (2, "")
        assert err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("command, argv", [
        ("breakeven", ()), ("curve", ("--distances", "60"))])
    def test_default_product_that_is_not_configured_exits_2(self, command, argv, tmp_path):
        data = preset_dict()
        data["products"] = ["methanol"]
        path = tmp_path / "methanol.yaml"
        path.write_text(yaml.safe_dump(data))
        status, out, err = self.run_cli("--config", str(path), "--command", command,
                                        "--plant", "coal", *argv)
        assert (status, out) == (2, "")
        assert err == ("config error: --product not given, and its default 'methane' is not "
                       "configured; pass --product, one of ['methanol']\n")
        status, out, err = self.run_cli("--config", str(path), "--command", command,
                                        "--plant", "coal", "--product", "methane", *argv)
        assert (status, out) == (2, "")
        assert err == ("config error: unknown product 'methane'; configured products are "
                       "['methanol']\n")

    @pytest.mark.parametrize("command, argv", [
        ("breakeven", ()), ("curve", ("--distances", "60")), ("penalty", ()),
        ("scenario", ("--beta", "0.5"))])
    def test_empty_product_name_exits_2(self, command, argv):
        # an empty name is no product name, not the command's default product
        status, out, err = self.run_cli("--config", "paper-2024", "--command", command,
                                        "--plant", "coal", "--product", "", *argv)
        assert (status, out) == (2, "")
        assert err == ("config error: unknown product ''; configured products are "
                       "['methane', 'methanol', 'ethanol']\n")

    def test_bare_number_for_dimensioned_key_is_an_error(self):
        data = preset_dict()
        data["econ"]["c_wind"] = 1030
        with pytest.raises(ConfigError, match=r"c_wind.*\$/kW"):
            load_config_text(yaml.safe_dump(data))

    def test_console_entry_point(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ewhnexus.cli", "--config", "paper-2024",
             "--command", "penalty", "--plant", "biomass", "--format", "json"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "penalty_threshold_usd_per_ton" in proc.stdout



def argparse_reference():
    """The argument parser the CLI used before it parsed its own flags: the oracle."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="ewhnexus",
        description="Techno-economic scenarios for carbon capture retrofits "
                    "with water, wind and hydrogen sections.")
    parser.add_argument("--config", required=True,
                        help="path to a YAML config, or a preset name such as 'paper-2024'")
    parser.add_argument("--command", required=True, choices=tuple(COMMANDS))
    parser.add_argument("--format", default="table", choices=("table", "csv", "json"))
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--plant", default=None, help="plant name from the config")
    parser.add_argument("--product", default=None, help="product name from the config")
    parser.add_argument("--beta", type=float, default=None, help="reuse fraction in [0, 1]")
    parser.add_argument("--distances", default=None,
                        help="comma-separated pipe distances [km] for 'curve'")
    parser.add_argument("--flows", default=None,
                        help="comma-separated water flows [m3/h] for 'curve'")
    return parser


ORACLE = argparse_reference()
FLAG_NAMES = ("config", "command", "format", "out", "plant", "product", "beta", "distances",
              "flows")
# a value that does not start with "-"; "," "=" and " " included
PLAIN = st.text(st.sampled_from("abc019.,= _"), max_size=6).filter(lambda v: v[:1] != "-")
# a negative number after a space is a value only as a plain decimal: "-1e-3" is a flag
NUMBER = st.sampled_from(["0", "1", "0.5", ".25", "1e-3", "inf", "nan", "-0", "-0.5", "-.5",
                          "-2", "-1e-3", "-1.", "x"])


def mostly(common, rare):
    """Draws of ``rare`` one time in ten, else of ``common``."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 0 else common)


@st.composite
def argvs(draw):
    """An argv of the nine flags: both ``=`` forms, prefixes, repeats and shuffled order."""
    values = {"command": mostly(st.sampled_from(tuple(COMMANDS)), PLAIN),
              "format": mostly(st.sampled_from(("table", "csv", "json")), PLAIN),
              "beta": NUMBER, "distances": mostly(st.sampled_from(["10,20", "5", ""]), PLAIN),
              "flows": mostly(st.sampled_from(["0,1.5", ""]), PLAIN)}
    names = draw(st.lists(st.sampled_from(FLAG_NAMES), max_size=6))
    for required in ("config", "command"):   # given, as a rule
        if draw(st.integers(0, 9)):
            names.append(required)
    argv = []
    for name in draw(st.permutations(names)):
        # the flag, or a prefix of it of at least one letter, which may be ambiguous
        flag = f"--{name}"[:draw(mostly(st.just(len(name) + 2), st.integers(3, len(name) + 2)))]
        value = draw(values.get(name, PLAIN))
        if name == "beta" and value[:1] == "-" and draw(st.booleans()) or draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


def oracle_args(argv: list[str]):
    """What the argparse reference reads from ``argv``, or None if it rejects it."""
    try:
        with redirect_stderr(io.StringIO()):
            return vars(ORACLE.parse_args(argv))
    except SystemExit:
        return None


class TestParseArgs:
    @settings(max_examples=400, deadline=None)
    @given(argv=argvs())
    # argparse types --beta at each repeat, and run() read the last --distances only
    @example(argv=["--config", "x", "--command", "sweep", "--beta", "half", "--beta", "1"])
    @example(argv=["--config", "x", "--command", "curve", "--distances", "x", "--distances=1"])
    def test_reads_what_argparse_read(self, argv):
        expected = oracle_args(argv)
        if expected is None:
            with pytest.raises(ConfigError):
                parse_args(argv)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                status = main(argv)
            assert (status, out.getvalue()) == (2, "")
            assert err.getvalue().startswith("config error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            return
        try:   # the flags that run() read as lists of numbers
            for name in ("distances", "flows"):
                expected[name] = _parse_float_list(expected[name], f"--{name}")
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
                parse_args(argv)
            return
        got = vars(parse_args(argv))
        assert got.keys() == expected.keys()
        for name, value in expected.items():   # NaN equals NaN, and -0.0 is not 0.0
            assert repr(got[name]) == repr(value), name

    @pytest.mark.parametrize("argv, message", [
        (["--bogus", "x"], "unrecognized argument '--bogus'"),
        (["stray"], "unrecognized argument 'stray'"),
        (["--config", "paper-2024", "--command"], "--command expects a value"),
        (["--config", "--command", "sweep"], "--config expects a value"),
        (["--plant", "-x"], "--plant expects a value"),
        (["--command", "bogus"], "--command: invalid choice 'bogus' (choose from "
                                 + ", ".join(COMMANDS) + ")"),
        (["--format=xml"], "--format: invalid choice 'xml' (choose from table, csv, json)"),
        (["--beta", "half"], "--beta: expected a number, got 'half'"),
        (["--p", "coal"], "ambiguous option --p: could be --plant, --product"),
        (["--co=x"], "ambiguous option --co: could be --config, --command"),
        (["--help=1"], "unrecognized argument '--help=1'"),
        (["--command", "sweep"], "--config is required"),
        (["--config", "paper-2024"], "--command is required"),
    ], ids=["unknown-flag", "stray-value", "missing-value-at-end", "flag-as-value",
            "dash-value", "command-choice", "format-choice", "beta-not-a-number",
            "ambiguous-prefix", "ambiguous-prefix-with-value", "help-with-value",
            "no-config", "no-command"])
    def test_a_usage_error_is_one_config_error_line(self, argv, message):
        with pytest.raises(ConfigError) as info:
            parse_args(argv)
        assert str(info.value) == message
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
        assert (status, out.getvalue(), err.getvalue()) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"],
                                      ["--config", "paper-2024", "-h", "--bogus"]])
    def test_help_names_every_command_and_flag_and_exits_0(self, argv):
        assert parse_args(argv) is None
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
        assert (status, err.getvalue()) == (0, "")
        text = out.getvalue()
        assert text.startswith("usage: ewhnexus ")
        for name in COMMANDS:
            assert f"\n  {name}" in text
        for name in FLAG_NAMES:
            assert f"--{name} " in text
        for name, command in COMMANDS.items():   # each command's line names its flags
            line = next(line for line in text.splitlines() if line.split()[:1] == [name])
            assert [word[2:] for word in line.replace("[", "").split() if word[:2] == "--"] == [
                *command.required, *command.optional]

    def test_values_are_typed_once(self):
        args = parse_args(["--config=paper-2024", "--comm", "curve", "--pl", "coal",
                           "--dist", "0, 60", "--flows=1.5", "--beta", "-0", "--beta", "-.5"])
        assert (args.config, args.command, args.plant, args.distances, args.flows) == (
            "paper-2024", "curve", "coal", (0.0, 60.0), (1.5,))
        assert repr(args.beta) == "-0.5" and args.format == "table" and args.out is None


def fresh_text(tag: str) -> str:
    """The preset's text with a comment no other test writes, so no earlier load has it."""
    return f"{PRESET_TEXT}# {tag}\n"


def counting_parses(monkeypatch) -> list[str]:
    """The texts ``load_config_text`` is called on from now on."""
    parsed = []
    original = config.load_config_text

    def counting(text):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(config, "load_config_text", counting)
    return parsed


class TestConfigCache:
    """``load_config`` validates each distinct text once; the file is read every call."""

    def test_unchanged_file_is_validated_once(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.yaml"
        path.write_text(fresh_text(f"validated once {tmp_path}"))
        parsed = counting_parses(monkeypatch)
        first = load_config(path)
        assert load_config(str(path)) is first
        assert parsed == [path.read_text()]

    def test_rewritten_file_reloads_between_cli_calls(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        argv = ["--config", str(path), "--command", "breakeven", "--plant", "biomass",
                "--format", "json"]
        outputs = []
        for price in ("0.25 $/kWh", "0.3 $/kWh"):
            data = preset_dict()
            data["econ"]["elec_price"] = price
            path.write_text(yaml.safe_dump(data))
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(argv) == 0
            outputs.append(out.getvalue())
            assert load_config(path).econ.elec_price == float(price.split()[0])
        assert outputs[0] != outputs[1]

    def test_invalid_text_reports_every_error_on_every_call(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.yaml"
        path.write_text(fresh_text(f"valid first {tmp_path}"))
        load_config(path)
        data = preset_dict()
        data["econ"]["mystery_knob"] = 3
        data["econ"]["c_wind"] = "1030 $/kWh"
        path.write_text(yaml.safe_dump(data))
        parsed = counting_parses(monkeypatch)
        for _ in range(2):
            with pytest.raises(ConfigError) as info:
                load_config(path)
            lines = str(info.value).splitlines()
            assert lines[0] == "invalid config:" and len(lines) == 3
            assert "econ.mystery_knob: unknown key" in lines[1] + lines[2]
            assert "econ.c_wind: " in lines[1] + lines[2]
        assert len(parsed) == 2

    def test_preset_name_and_a_copy_of_its_file_share_one_config(self, tmp_path):
        path = tmp_path / "copy.yaml"
        path.write_text(PRESET_TEXT)
        assert load_config(path) is load_config("paper-2024") == load_config_text(PRESET_TEXT)

    def test_cache_holds_at_most_its_bound(self, tmp_path, monkeypatch):
        bound = config._validated.cache_info().maxsize
        assert bound is not None and bound >= 4
        parsed = counting_parses(monkeypatch)
        texts = [fresh_text(f"bound {i} {tmp_path}") for i in range(bound + 3)]
        for text in texts:
            path = tmp_path / "cfg.yaml"
            path.write_text(text)
            load_config(path)
        assert parsed == texts
        assert config._validated.cache_info().currsize == bound


class TestPresetText:
    """A shipped preset is read once per process; a file is read on every call."""

    @pytest.fixture
    def preset_named_file(self, tmp_path, monkeypatch):
        """A working directory holding a file named 'paper-2024' with elec_price 0.5 $/kWh."""
        data = preset_dict()
        data["econ"]["elec_price"] = "0.5 $/kWh"
        (tmp_path / "paper-2024").write_text(yaml.safe_dump(data))
        monkeypatch.chdir(tmp_path)

    def test_a_file_wins_over_a_preset_of_its_name(self, preset_named_file):
        assert load_config("paper-2024").econ.elec_price == 0.5

    def test_paper_2024_is_the_shipped_preset_whatever_the_working_directory(
            self, preset_named_file):
        assert paper_2024().econ.elec_price == 0.25
        assert paper_2024() == load_config_text(PRESET_TEXT)

    def test_two_loads_read_the_preset_once(self, monkeypatch):
        reads = []

        def files(package):
            reads.append(package)
            return resources.files(package)

        monkeypatch.setattr(config, "resources", SimpleNamespace(files=files))
        config._preset_text.cache_clear()
        first = load_config("paper-2024")
        assert load_config("paper-2024") is first and paper_2024() is first
        assert reads == ["ewhnexus"]

    def test_the_reference_file_is_read_on_first_use_and_once(self):
        # the benchmark's setup time covers the import and a config load: neither reads it
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
        code = ("from ewhnexus import cli, config; config.paper_2024(); "
                "read = config.paper_2024_reference.cache_info().misses; "
                "print(read, config.paper_2024_reference() is config.paper_2024_reference())")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout == "0 True\n"


class TestSharedConfig:
    """A loaded config is handed to every caller of its text, so it cannot change."""

    @pytest.mark.parametrize("section, key, name", [
        ("econ", "product_prices", "methane"),
        ("calibration", "r_w_per_100km", "coal"),
    ])
    def test_maps_refuse_writes(self, section, key, name):
        mapping = getattr(getattr(paper_2024(), section), key)
        before = dict(mapping)
        with pytest.raises(TypeError):
            mapping[name] = 1.0
        with pytest.raises(TypeError):
            del mapping[name]
        with pytest.raises(TypeError):
            mapping["new"] = 1.0
        again = paper_2024()
        assert getattr(getattr(again, section), key) == before
        assert again == load_config_text(PRESET_TEXT)

    def test_maps_equal_the_dicts_they_hold(self):
        cfg = paper_2024()
        assert cfg.econ.product_prices == {"methane": 1400.0, "methanol": 616.0,
                                           "ethanol": 493.0}
        assert cfg.calibration.r_w_per_100km == yaml.safe_load(PRESET_TEXT)["calibration"][
            "r_w_per_100km"]
        assert cfg.econ.product_prices != {"methane": 1400.0}

    @pytest.mark.parametrize("copy_of", [
        lambda cfg: pickle.loads(pickle.dumps(cfg)), copy.deepcopy, copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_loaded_config_copies_equal(self, copy_of):
        cfg = paper_2024()
        copied = copy_of(cfg)
        assert copied == cfg
        assert dump_config(copied) == dump_config(cfg)
        assert sweep_csv(copied) == sweep_csv(cfg)

    def test_replace_takes_a_new_price_map(self):
        econ = paper_2024().econ
        prices = {k: v * 2 for k, v in econ.product_prices.items()}
        doubled = dataclasses.replace(econ, product_prices=prices)
        assert doubled.product_prices == prices
        assert doubled.product_prices["methane"] == 2 * econ.product_prices["methane"]
        prices["methane"] = 0.0
        assert doubled.product_prices["methane"] == 2800.0
        assert econ.product_prices["methane"] == 1400.0

    def test_configs_and_products_hash(self):
        first, second = load_config_text(PRESET_TEXT), load_config_text(PRESET_TEXT)
        assert first is not second and hash(first) == hash(second)
        assert hash(first.econ) == hash(second.econ)
        plant = first.plants[0]
        costs = {p: total_daily_cost(first.scenario(plant, p, 1.0)) for p in first.products}
        assert [p.name for p in costs] == ["methane", "methanol", "ethanol"]
        equal = dataclasses.replace(second.product("methanol"))   # a new, equal product
        assert equal is not first.product("methanol")
        assert costs[equal] is costs[first.product("methanol")]
        with pytest.raises(TypeError):   # a map holding a dict is as unhashable as the dict
            hash(FrozenMap({"a": {}}))

    @pytest.mark.parametrize("key", ["methane", "hydrogen"])
    def test_membership_answers_from_the_dict_it_holds(self, key):
        items = {"methane": 1400.0}
        assert "__contains__" in vars(FrozenMap)   # not Mapping's try around __getitem__
        assert (key in FrozenMap(items)) is (key in items)

    def test_membership_of_an_unhashable_key_is_a_type_error(self):
        items = {"methane": 1400.0}
        for mapping in (items, FrozenMap(items)):
            with pytest.raises(TypeError, match="unhashable"):
                ["methane"] in mapping

    def test_calibration_keeps_its_own_copy(self):
        given = {"coal": 0.1}
        calibration = Calibration(ccs_capital_total=1.0, r_w_per_100km=given)
        given["coal"] = 5.0
        given["biomass"] = 0.2
        assert calibration.r_w_per_100km == {"coal": 0.1}


# -- every config key changes an output or is rejected ----------------------

WATER_MODES = ({"mode": "desalination"},
               {"mode": "network_transfer", "distance": "120 km"},
               {"mode": "solar_seawater"})
SOLAR_C_SW = "90000 $/(m3/h)"   # lets the solar sweep run on configs without c_sw


def watched_outputs(data, tmp_path) -> list[str]:
    """Outputs a config key must be able to move.

    The CLI sweep under each water mode (the config's own water section where
    its mode matches), then CLI breakeven, curve and store/reuse penalty for
    biomass and coal.  Last, one partial-load day through the library: every
    CLI command runs at full load, which only ever uses the top desalination
    segment, so e_des[1..3] show nowhere else.
    """
    def cli(doc, *argv):
        path = tmp_path / "flip.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            status = main(["--config", str(path), *argv])
        return f"{status}\n{out.getvalue()}"

    outputs = []
    for water_mode in WATER_MODES:
        doc = copy.deepcopy(data)
        if doc["water"]["mode"] != water_mode["mode"]:
            doc["water"] = water_mode
        if water_mode["mode"] == "solar_seawater":
            doc["econ"].setdefault("c_sw", SOLAR_C_SW)
        outputs.append(cli(doc, "--command", "sweep", "--format", "csv"))
    for plant in ("biomass", "coal"):
        outputs.append(cli(data, "--command", "breakeven", "--plant", plant, "--format", "json"))
        outputs.append(cli(data, "--command", "curve", "--plant", plant,
                           "--distances", "60,260,300", "--format", "csv"))
        outputs.append(cli(data, "--command", "penalty", "--plant", plant, "--format", "json"))
        outputs.append(cli(data, "--command", "penalty", "--plant", plant,
                           "--product", "methanol", "--format", "json"))

    cfg = load_config_text(yaml.safe_dump(data))
    plant, product = cfg.plant("biomass"), cfg.product("methanol")
    full = plant.cbar
    ramp = TimeSeries(tuple(full * (h + 0.5) / 24 for h in range(24)), "ton/h")
    day = ScenarioConfig(plant=plant, econ=cfg.econ_for(plant), beta=1.0, product=product,
                         water_mode=cfg.water_mode, capture_profile=ramp)
    outputs.append(repr(total_daily_cost(day).daily_cost.value_in("$/day")))
    return outputs


def flips(data):
    """(path, replacement) for every leaf of a config document."""
    def leaves(node, path):
        if isinstance(node, dict):
            for key, child in node.items():
                yield from leaves(child, path + (key,))
        elif isinstance(node, list):
            for i, child in enumerate(node):
                yield from leaves(child, path + (i,))
        else:
            yield path, node

    for path, value in leaves(data, ()):
        if path == ("water", "mode"):
            for mode in sorted({m["mode"] for m in WATER_MODES} - {value}):
                yield path, mode
        elif isinstance(value, bool):
            yield path, not value
        elif isinstance(value, int):
            yield path, value + 1
        elif isinstance(value, float):
            yield path, value * 0.8
        else:
            number, _, unit = value.partition(" ")
            try:
                yield path, f"{float(number) * 0.8!r} {unit}"
            except ValueError:
                yield path, value + "_x"   # a name: renaming it must be caught


def set_leaf(data, path, value):
    doc = copy.deepcopy(data)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def flip_id(flip) -> str:
    path, value = flip
    return ".".join(str(k) for k in path) + f"={value}"


def without(data, section, key):
    doc = copy.deepcopy(data)
    del doc[section][key]
    return doc


PRESET = preset_dict()
TRANSFER = set_leaf(PRESET, ("water",), {"mode": "network_transfer", "distance": "120 km"})
SOLAR = set_leaf(set_leaf(PRESET, ("water",), {"mode": "solar_seawater"}),
                 ("econ", "c_sw"), SOLAR_C_SW)

# key -> (why the shipped preset masks it, a config where it is live)
MASKED = {
    ("econ", "r_w_per_100km"): ("overridden by the per-plant calibration entries, "
                                "which cover all three plants",
                                without(PRESET, "calibration", "r_w_per_100km")),
    ("econ", "c_we"): ("has an effect only with policy.include_hydrogen_capital on",
                       set_leaf(PRESET, ("policy", "include_hydrogen_capital"), True)),
    ("econ", "c_sw"): ("has an effect only in solar mode", SOLAR),
    ("water", "distance"): ("exists only in network_transfer mode", TRANSFER),
    ("econ", "c_ccs"): ("absent from the preset, where calibration.ccs_capital_total sets "
                        "the capture capital",
                        set_leaf(without(PRESET, "calibration", "ccs_capital_total"),
                                 ("econ", "c_ccs"), "43080 $/(ton/day)")),
}
CASES = [pytest.param(PRESET, flip, id="preset:" + flip_id(flip))
         for flip in flips(PRESET) if flip[0] not in MASKED]
CASES += [pytest.param(base, flip, id="live:" + flip_id(flip))
          for path, (_why, base) in MASKED.items()
          for flip in flips(base) if flip[0] == path]
# in the preset every other water mode is rejected (transfer needs a distance, solar
# c_sw), and from transfer mode too (only transfer takes a distance); from solar mode
# desalination loads
CASES += [pytest.param(base, flip, id=f"{label}:" + flip_id(flip))
          for label, base in (("transfer", TRANSFER), ("solar", SOLAR))
          for flip in flips(base) if flip[0] == ("water", "mode")]
_BASELINES: dict[str, list[str]] = {}


@pytest.mark.parametrize("base, flip", CASES)
def test_every_key_flip_changes_an_output_or_is_rejected(base, flip, tmp_path):
    flipped = set_leaf(base, *flip)
    try:
        load_config_text(yaml.safe_dump(flipped))
    except ConfigError:
        return
    key = yaml.safe_dump(base)
    if key not in _BASELINES:
        _BASELINES[key] = watched_outputs(base, tmp_path)
    assert watched_outputs(flipped, tmp_path) != _BASELINES[key], (
        f"{flip_id(flip)} loads but changes no output")


def test_a_water_mode_flip_loads():
    # a rejected flip passes the flip test, so one mode flip must load to be compared
    loaded = []
    for param in CASES:
        base, flip = param.values
        if flip[0] == ("water", "mode"):
            try:
                load_config_text(yaml.safe_dump(set_leaf(base, *flip)))
            except ConfigError:
                continue
            loaded.append(param.id)
    assert loaded == ["solar:water.mode=desalination"]


def test_every_table_key_is_flipped():
    flipped = {param.values[1][0][:2] for param in CASES}
    assert [row[:2] for row in config._FIELDS if row[:2] not in flipped] == []


# (path to a magnitude, larger unit, smaller unit, digits between them, field unit is
# the larger): every key whose unit has a decimal sibling in the unit table.  No config
# key takes a volume, so L and m3 have none.
DECIMAL_UNITS = (
    [(("econ", key), "$/kg", "$/ton", 3, False) for key in ("r_cts", "r_ccs")]
    + [(("econ", "product_prices", name), "$/kg", "$/ton", 3, False)
       for name in ("methane", "methanol", "ethanol")]
    + [(("econ", "c_tw"), "$/m", "$/km", 3, True),
       (("calibration", "ccs_capital_total"), "M$", "$", 6, False)]
    + [(("plants", i, key), larger, smaller, 3, field_is_larger)
       for i in range(3) for key, larger, smaller, field_is_larger in (
           ("capacity", "MW", "kW", False), ("emission_factor", "kg/kWh", "g/kWh", True))]
    + [(("water", "distance"), "km", "m", 3, False)])   # kept in both km and m


def shift_left(digits: str, places: int) -> str:
    """The integer text ``digits`` with its decimal point moved ``places`` to the left."""
    digits = digits.zfill(places + 1)
    whole, frac = digits[:-places].lstrip("0") or "0", digits[-places:].rstrip("0")
    return f"{whole}.{frac}" if frac else whole


@st.composite
def decimal_rewrites(draw):
    """A config document, and the same config with each magnitude in the other unit of its pair.

    A magnitude is an integer n in the smaller unit; its larger-unit text moves
    n's decimal point, with no float arithmetic.  Each text then reaches the
    engine with one rounding: where the field is the larger unit, n converts by
    one division and the decimal text parses as is; elsewhere n is a multiple
    of the shift, so both texts are integers and convert exactly.  A decimal
    text that the loader scales rounds twice, and can differ in the last bit.
    """
    data = yaml.safe_load(PRESET_TEXT)
    data["water"] = {"mode": "network_transfer", "distance": "100 km"}
    rewritten = copy.deepcopy(data)
    for path, larger, smaller, places, field_is_larger in DECIMAL_UNITS:
        n = draw(st.integers(1, 10 ** 6)) * (1 if field_is_larger else 10 ** places)
        texts = (f"{n} {smaller}", f"{shift_left(str(n), places)} {larger}")
        first = draw(st.booleans())
        data = set_leaf(data, path, texts[first])
        rewritten = set_leaf(rewritten, path, texts[not first])
    return data, rewritten


@settings(max_examples=25, deadline=None)
@given(documents=decimal_rewrites(), plant=st.sampled_from(["biomass", "natural_gas", "coal"]),
       product=st.sampled_from(["methane", "methanol", "ethanol"]))
def test_a_decimal_unit_rewrite_gives_byte_identical_cli_output(documents, plant, product):
    commands = [("sweep", "--format", "csv"), ("sweep", "--format", "json"),
                ("breakeven", "--plant", plant, "--product", product, "--format", "json"),
                ("penalty", "--plant", plant, "--format", "csv"),
                ("penalty", "--plant", plant, "--product", product, "--format", "json")]
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for i, doc in enumerate(documents):
            path = Path(tmp) / f"config{i}.yaml"
            path.write_text(yaml.safe_dump(doc))
            runs = []
            for command, *flags in commands:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    status = main(["--config", str(path), "--command", command, *flags])
                runs.append((status, out.getvalue(), err.getvalue()))
            outputs.append(runs)
    assert outputs[0] == outputs[1]
    assert outputs[0][0][0] == 0   # the sweep priced every cell


json_scalars = (st.text() | st.sampled_from(['"', "\\", "\n", "é", "\u2028", "\U0001f600"])
                | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
                | st.integers() | st.booleans() | st.none())
json_records = st.dictionaries(st.text(), json_scalars | st.lists(json_scalars, max_size=3)
                               | st.dictionaries(st.text(), json_scalars, max_size=3), max_size=6)


@settings(max_examples=300, deadline=None)
@given(data=json_records | st.lists(json_records, max_size=5))
def test_render_json_is_json_dumps_with_indent_2(data):
    # a record command writes one record, a table command a list of them
    assert render_json(data) == json.dumps(data, indent=2) + "\n"
