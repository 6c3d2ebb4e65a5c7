"""Capital annualization, scenario assembly and derived decision metrics."""

import copy
import math
import pickle
import sys
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from ewhnexus import ccss, conversion, economics, water
from ewhnexus.analysis import (
    BreakevenQuery, ReuseAll, SweepCell, SweepGrid, breakeven_distance, penalty_threshold,
    scenario_sweep,
)
from ewhnexus.config import ConfigError, paper_2024
from ewhnexus.conversion import ETHANOL, METHANE, METHANOL
from ewhnexus.economics import ScenarioConfig, daily_capital_charge, total_daily_cost
from ewhnexus.quantities import (
    HOURS_PER_DAY, CostLedger, DomainError, EconParams, LedgerItem, PlantSpec, Quantity,
    TimeSeries, UnitError, add_hourly, check_beta,
)
from ewhnexus.water import Desalination, NetworkTransfer, SolarSeawater

BIOMASS = PlantSpec("biomass", Quantity(500, "MW"), Quantity(230, "g/kWh"))
# ledger term tag -> (module, name) of the cost term producing it
TERMS = {
    "ccss-capital": (ccss, "ccss_capital"),
    "ccss-operational": (ccss, "ccss_operational"),
    "power-capital": (conversion, "power_capital"),
    "hydrogen-capital": (conversion, "hydrogen_capital"),
    "water-capital": (water, "water_capital"),
    "water-operational": (water, "water_operational"),
    "product-revenue": (conversion, "chemical_revenue"),
}


# unset input -> (what leaves it unset, the water mode, the error of a reuse cell)
UNSET = {
    "c_ccs": ({"c_ccs": None}, Desalination(),
              "ccss-capital: c_ccs (capture plant capital cost) is not configured"),
    "c_sw": ({"c_sw": None}, SolarSeawater(),
             "water-capital: c_sw (solar-seawater capital, $/(m3/h)) is not configured"),
    "price": ({"product_prices": {"methanol": 616.0}}, Desalination(),
              "product-revenue: no market price ($/ton) configured for product 'methane'"),
}


def raised(call) -> str:
    """The message of the DomainError that ``call()`` raises."""
    with pytest.raises(DomainError) as info:
        call()
    return str(info.value)


def econ(**over):
    base = dict(elec_price=0.25, r_cts=15.0, r_ccs=45.0, c_cts=250.0, c_ccs=43080.0,
                c_wind=1030.0, c_des=2e5, c_tw=160.0,
                wind_capacity_factor=0.423, eta_pump=0.9,
                product_prices={"methane": 1400.0, "methanol": 616.0, "ethanol": 493.0})
    base.update(over)
    return EconParams(**base)


class TestDailyCapitalCharge:
    def test_zero_interest_single_year_degenerates_to_365th(self):
        charge = daily_capital_charge(1e6, econ(horizon_years=1, interest_rate=0.0))
        assert charge == 1e6 / 365.0

    def test_zero_interest_general_horizon(self):
        charge = daily_capital_charge(730.0, econ(horizon_years=2, interest_rate=0.0))
        assert charge == pytest.approx(1.0, rel=1e-12)

    def test_reference_twenty_year_case(self):
        # oracle: 1e6 * 1.05**19 / 7300 = 346.1575610103617
        charge = daily_capital_charge(1e6, econ(horizon_years=20, interest_rate=0.05))
        assert charge == pytest.approx(346.1575610103617, rel=1e-12)

    def test_linear_in_capital(self):
        params = econ(horizon_years=20, interest_rate=0.05)
        one = daily_capital_charge(1e6, params)
        five = daily_capital_charge(5e6, params)
        assert five == pytest.approx(5 * one, rel=1e-12)

    def test_strictly_increasing_in_interest_rate(self):
        charges = [daily_capital_charge(1e6, econ(horizon_years=20, interest_rate=lam))
                   for lam in (0.0, 0.02, 0.05, 0.08)]
        assert charges == sorted(charges) and len(set(charges)) == len(charges)


def storage_costing(daily: float, plant: PlantSpec = BIOMASS):
    """The storage scenario of ``plant`` whose daily cost is ``daily`` [$ / day]: no capital,
    and ``daily / cbar_day`` per ton piped to storage."""
    result = total_daily_cost(ScenarioConfig(plant=plant, econ=econ(
        c_cts=0.0, c_ccs=0.0, r_cts=0.0, r_ccs=daily / plant.cbar_day), beta=0.0))
    assert result.daily_cost.value_in("$/day") == pytest.approx(daily, rel=1e-12, abs=0.0)
    return result


class TestDerivedMetrics:
    def test_increased_price_reference_rows(self):
        assert storage_costing(0.207e6).increased_price.value_in(
            "$/kWh") == pytest.approx(0.414, rel=1e-9)
        assert storage_costing(0.395e6).increased_price.value_in(
            "$/kWh") == pytest.approx(0.79, rel=1e-9)
        assert storage_costing(0.0).increased_price.magnitude == 0.0

    def test_carbon_penalty_reference_rows(self):
        assert storage_costing(0.207e6).carbon_penalty.value_in(
            "$/ton") == pytest.approx(75.0, rel=1e-9)
        coal = PlantSpec("coal", Quantity(500, "MW"), Quantity(820, "g/kWh"))
        assert storage_costing(0.633e6, coal).carbon_penalty.value_in(
            "$/ton") == pytest.approx(64.329, abs=1e-3)

    def test_negative_daily_cost_gives_negative_threshold(self):
        # methane sold at a price its reuse more than pays for
        result = total_daily_cost(ScenarioConfig(
            plant=BIOMASS, econ=econ(product_prices={"methane": 1e5}), beta=1.0,
            product=METHANE, water_mode=Desalination()))
        assert result.daily_cost.magnitude < 0
        assert result.carbon_penalty.magnitude < 0

    def test_zero_emissions_rejected(self):
        with pytest.raises(DomainError):
            PlantSpec("clean", Quantity(500, "MW"), Quantity(0, "g/kWh"))


class TestTotalDailyCost:
    def test_storage_scenario_has_no_reuse_terms(self):
        result = total_daily_cost(ScenarioConfig(plant=BIOMASS, econ=econ(), beta=0.0))
        terms = {i.term for i in result.ledger.items}
        assert terms == {"ccss-capital", "ccss-operational", "capital-charge"}
        assert result.ledger.operational_total() == 165600.0
        assert result.ledger.revenue_total() == 0.0

    def test_ledger_total_equals_item_sum_exactly(self):
        cfg = ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE,
                             water_mode=Desalination())
        result = total_daily_cost(cfg)
        by_hand = math.fsum(i.amount for i in result.ledger.items if i.unit == "$/day")
        assert result.daily_cost.value_in("$/day") == by_hand

    def test_reuse_scenario_itemizes_every_section(self):
        cfg = ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE,
                             water_mode=Desalination())
        terms = {i.term for i in total_daily_cost(cfg).ledger.items}
        assert terms == {"ccss-capital", "ccss-operational", "power-capital",
                         "water-capital", "water-operational", "product-revenue",
                         "capital-charge"}

    def test_hydrogen_capital_included_only_on_request(self):
        base = ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE,
                              water_mode=Desalination())
        with_h2 = ScenarioConfig(
            plant=BIOMASS, econ=econ(include_hydrogen_capital=True), beta=1.0,
            product=METHANE, water_mode=Desalination())
        t0 = {i.term for i in total_daily_cost(base).ledger.items}
        t1 = {i.term for i in total_daily_cost(with_h2).ledger.items}
        assert "hydrogen-capital" not in t0 and "hydrogen-capital" in t1
        assert (total_daily_cost(with_h2).ledger.capital_total()
                > total_daily_cost(base).ledger.capital_total())

    def test_monotone_in_product_price_and_capture_cost(self):
        def daily(**over):
            cfg = ScenarioConfig(plant=BIOMASS, econ=econ(**over), beta=1.0,
                                 product=METHANOL, water_mode=Desalination())
            return total_daily_cost(cfg).daily_cost.value_in("$/day")

        base_prices = {"methane": 1400.0, "methanol": 616.0, "ethanol": 493.0}
        rising_price = [daily(product_prices={**base_prices, "methanol": p})
                        for p in (300.0, 616.0, 900.0)]
        assert rising_price == sorted(rising_price, reverse=True)
        rising_rccs = [daily(r_ccs=r) for r in (30.0, 45.0, 60.0)]
        assert rising_rccs == sorted(rising_rccs)

    def test_beta_without_product_rejected(self):
        with pytest.raises(DomainError):
            ScenarioConfig(plant=BIOMASS, econ=econ(), beta=0.5)

    def test_reuse_without_water_mode_rejected(self):
        with pytest.raises(DomainError,
                           match=r"^a reuse scenario \(beta > 0\) needs a water mode$"):
            ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE)

    @pytest.mark.parametrize("mode", [
        Desalination(), NetworkTransfer(Quantity(150.0, "km")), SolarSeawater()],
        ids=["desalination", "transfer", "solar"])
    def test_storage_needs_no_water_mode(self, mode):
        bare = total_daily_cost(ScenarioConfig(plant=BIOMASS, econ=econ(), beta=0.0))
        moded = total_daily_cost(ScenarioConfig(plant=BIOMASS, econ=econ(), beta=0.0,
                                                water_mode=mode))
        assert repr(bare) == repr(moded)

    @pytest.mark.parametrize("beta", [True, False])
    def test_bool_beta_rejected(self, beta):
        # a bool is no reuse fraction, although True == 1 and False == 0
        message = rf"^reuse fraction must be a number, got {beta!r}$"
        with pytest.raises(DomainError, match=message):
            check_beta(beta)
        with pytest.raises(DomainError, match=message):
            ScenarioConfig(plant=BIOMASS, econ=econ(), beta=beta, product=METHANE,
                           water_mode=Desalination())
        cfg = paper_2024()
        with pytest.raises(DomainError, match=message):
            cfg.scenario(cfg.plant("coal"), cfg.product("methane"), beta)

    @pytest.mark.parametrize("unset", list(UNSET))
    def test_an_unset_cost_fails_each_entry_before_any_term(self, monkeypatch, unset):
        def never(*args):   # a DomainError, so the sweep's storage cell reports it
            raise DomainError("a cost kernel ran")

        for module, name in [*TERMS.values(), (economics, "daily_capital_charge")]:
            monkeypatch.setattr(module, name, never)
        over, mode, message = UNSET[unset]
        params = econ(include_hydrogen_capital=True, **over)
        cfg = ScenarioConfig(plant=BIOMASS, econ=params, beta=1.0, product=METHANE,
                             water_mode=mode)
        grid = SweepGrid([BIOMASS], [METHANE], [1.0], mode)
        errors = {"total_daily_cost": raised(lambda: total_daily_cost(cfg)),
                  "sweep": scenario_sweep(grid, params)[-1].error,
                  "penalty_threshold": raised(
                      lambda: penalty_threshold(BIOMASS, ReuseAll(METHANE), params, mode))}
        expected = dict.fromkeys(errors, message)
        expected["sweep"] = f"cell (biomass, methane, beta=1): {message}"
        if unset != "c_sw":   # a break-even solve prices desalination and transfer only
            query = BreakevenQuery(BIOMASS, METHANE)
            errors["breakeven"] = raised(lambda: breakeven_distance(query, params))
            expected["breakeven"] = message
        assert errors == expected

    def test_unset_costs_are_reported_in_ledger_order(self):
        # a storage cell needs neither c_sw nor a price, even in solar mode
        grid = SweepGrid([BIOMASS], [METHANE], [1.0], SolarSeawater())
        bare = econ(c_sw=None, product_prices={})
        errors = [[cell.error for cell in scenario_sweep(grid, params)]
                  for params in (replace(bare, c_ccs=None), bare)]
        assert errors == [
            [f"cell (biomass, -, beta=0): {UNSET['c_ccs'][2]}",
             f"cell (biomass, methane, beta=1): {UNSET['c_ccs'][2]}"],
            [None, f"cell (biomass, methane, beta=1): {UNSET['c_sw'][2]}"]]

    @pytest.mark.parametrize("unset, key", [("c_sw", "c_sw"),
                                            ("price", "product_prices.methane")],
                             ids=["c_sw", "price"])
    def test_the_config_and_the_column_give_an_unset_cost_one_reason(self, unset, key):
        # the config reports `econ.<key>: <why>`, a column raises `<ledger term>: <why>`
        over, mode, _ = UNSET[unset]
        cfg = paper_2024()   # which leaves c_sw unset
        coal = cfg.plant("coal")
        with pytest.raises(ConfigError) as info:
            replace(cfg, econ=replace(cfg.econ, **over), water_mode=mode)
        config_key, _, config_why = str(info.value).split("\n  ")[0].partition(": ")
        column = raised(lambda: economics._column(coal, replace(cfg.econ_for(coal), **over),
                                                  METHANE, mode))
        assert config_key == f"econ.{key}"
        assert column.partition(": ")[2] == config_why
        if unset == "c_sw":   # a solar config needs c_sw without products too
            with pytest.raises(ConfigError) as info:
                replace(cfg, products=(), water_mode=mode)
            assert str(info.value) == f"econ.c_sw: {config_why}"

    def test_overflowing_amount_is_rejected_without_a_term_tag(self):
        cfg = ScenarioConfig(plant=BIOMASS, econ=econ(c_wind=1e308), beta=1.0,
                             product=METHANE, water_mode=Desalination())
        with pytest.raises(DomainError) as info:
            total_daily_cost(cfg)
        assert str(info.value) == "ledger amount must be finite (wind farm capital)"

    @pytest.mark.parametrize("over, error, message", [
        # every capital item is finite, their sum is not
        (dict(c_wind=5e301, c_des=7e305), DomainError,
         "ledger amount must be finite (daily capital charge)"),
        # every flow is finite, their sum with the capital charge is not
        (dict(r_ccs=6e304, elec_price=1e303), UnitError, "magnitude must be finite, got inf"),
    ], ids=["capital", "daily"])
    def test_a_total_that_overflows_fails_the_cell(self, over, error, message):
        cfg = ScenarioConfig(plant=BIOMASS, econ=econ(**over), beta=1.0,
                             product=METHANE, water_mode=Desalination())
        with pytest.raises(error) as info:
            total_daily_cost(cfg)
        assert str(info.value) == message

    def test_transfer_scenario_runs(self):
        cfg = ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=ETHANOL,
                             water_mode=NetworkTransfer(Quantity(250, "km")))
        result = total_daily_cost(cfg)
        assert any(i.term == "water-capital" for i in result.ledger.items)

    @settings(max_examples=200, deadline=None)
    @given(plant=st.sampled_from(paper_2024().plants),
           product=st.sampled_from([METHANE, METHANOL, ETHANOL]),
           betas=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=2, max_size=2),
           d_km=st.floats(0.0, 1000.0))
    def test_transfer_pipe_capital_is_per_meter_whatever_the_capacity(self, plant, product,
                                                                       betas, d_km):
        # c_tw is in $/m: a 61 km biomass/methane pipe costs 160 * 61,000 $, not
        # W * 160 * 61,000 = 1.8e9 $
        mode = NetworkTransfer(Quantity(d_km, "km"))
        for beta in betas:
            result = total_daily_cost(ScenarioConfig(plant=plant, econ=econ(), beta=beta,
                                                     product=product, water_mode=mode))
            assert [i.amount for i in result.ledger.items if i.term == "water-capital"] == [
                econ().c_tw * mode.m]

    def test_result_metrics_recomputable_from_daily_cost(self):
        cfg = ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANOL,
                             water_mode=Desalination())
        r = total_daily_cost(cfg)
        assert r.increased_price == Quantity(r.daily_cost.magnitude / 500_000.0, "$/kWh")
        assert r.carbon_penalty == Quantity(r.daily_cost.magnitude / 2760.0, "$/ton")

    def test_partial_load_profile_scales_flows_not_capital(self):
        from ewhnexus.quantities import TimeSeries
        full = total_daily_cost(
            ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE,
                           water_mode=Desalination()))
        half_profile = TimeSeries((57.5,) * 24, "ton/h")
        half = total_daily_cost(
            ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE,
                           water_mode=Desalination(),
                           capture_profile=half_profile))
        # capital stays sized to full capacity, flows halve; water operations
        # drop more than 2x because half flow sits on a cheaper segment
        assert half.ledger.capital_total() == full.ledger.capital_total()
        assert half.ledger.revenue_total() == pytest.approx(
            0.5 * full.ledger.revenue_total(), rel=1e-12)
        by_term_full = {i.term: i.amount for i in full.ledger.items}
        by_term_half = {i.term: i.amount for i in half.ledger.items}
        assert by_term_half["ccss-operational"] == pytest.approx(
            0.5 * by_term_full["ccss-operational"], rel=1e-12)
        full_segment, half_segment = 4.4, 3.8
        assert by_term_half["water-operational"] == pytest.approx(
            0.5 * by_term_full["water-operational"] * half_segment / full_segment,
            rel=1e-12)

    def test_overload_profile_names_the_water_term(self):
        from ewhnexus.quantities import TimeSeries
        overload = TimeSeries((130.0,) * 24, "ton/h")  # above the 115 ton/h design
        with pytest.raises(DomainError, match=r"step 0 is 130\.0 ton/h.*C̄ = 115\.0 ton/h"):
            ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE,
                           water_mode=Desalination(),
                           capture_profile=overload)

    @pytest.mark.parametrize("beta, mode", [
        (0.0, Desalination()),
        (1.0, Desalination()),
        (1.0, NetworkTransfer(Quantity(150.0, "km"))),
        (1.0, SolarSeawater()),
    ], ids=["storage", "desalination", "transfer", "solar"])
    def test_profile_above_full_load_is_rejected_when_the_scenario_is_built(self, beta, mode):
        from ewhnexus.quantities import TimeSeries
        steps = [115.0] * 24
        steps[7] = 115.5   # one hour above the 115 ton/h design
        with pytest.raises(DomainError, match=r"step 7 is 115\.5 ton/h.*C̄ = 115\.0"):
            ScenarioConfig(plant=BIOMASS, econ=econ(c_sw=2.5e5), beta=beta,
                           product=METHANE if beta else None, water_mode=mode,
                           capture_profile=TimeSeries(steps, "ton/h"))

    @pytest.mark.parametrize("name", ["biomass", "natural_gas", "coal"])
    def test_full_load_profile_in_any_mass_flow_unit_loads(self, name):
        from ewhnexus.quantities import TimeSeries
        plant = paper_2024().plant(name)
        for rate, unit in ((plant.cbar, "ton/h"), (plant.cbar * 1000, "kg/h"),
                           (plant.cbar * 24, "ton/day")):
            cfg = ScenarioConfig(plant=plant, econ=econ(), beta=1.0, product=METHANE,
                                 water_mode=Desalination(),
                                 capture_profile=TimeSeries((rate,) * 24, unit))
            assert total_daily_cost(cfg).daily_cost.value_in("$/day") == \
                total_daily_cost(replace(cfg, capture_profile=None)).daily_cost.value_in("$/day")

    def test_capture_profile_unit_is_converted_once_at_the_boundary(self):
        from ewhnexus.quantities import TimeSeries
        ton_h = tuple(115.0 * (h + 0.5) / 24 for h in range(24))   # a ramp [ton/h]
        ledgers = {}
        for unit, scale in (("ton/h", 1.0), ("ton/day", 24.0), ("kg/h", 1000.0)):
            profile = TimeSeries(tuple(v * scale for v in ton_h), unit)
            cfg = ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE,
                                 water_mode=Desalination(),
                                 capture_profile=profile)
            ledgers[unit] = {i.term: i.amount for i in total_daily_cost(cfg).ledger.items}
        for unit in ("ton/day", "kg/h"):
            assert ledgers[unit].keys() == ledgers["ton/h"].keys()
            for term, amount in ledgers["ton/h"].items():
                assert ledgers[unit][term] == pytest.approx(amount, rel=1e-12), (unit, term)

    def test_capture_profile_is_rescaled_once_per_scenario(self, monkeypatch):
        from ewhnexus.quantities import TimeSeries
        calls = []
        original = TimeSeries.values_in

        def counting(self, unit):
            calls.append(unit)
            return original(self, unit)

        monkeypatch.setattr(TimeSeries, "values_in", counting)
        profile = TimeSeries((115_000.0 * (h + 0.5) / 24 for h in range(24)), "kg/h")
        total_daily_cost(ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0,
                                        product=METHANE, water_mode=Desalination(),
                                        capture_profile=profile))
        assert calls == ["ton/h"]

    def test_a_profile_is_kept_in_ton_per_hour(self):
        from ewhnexus.quantities import TimeSeries
        kg_h = TimeSeries((115_000.0 * (h + 0.5) / 24 for h in range(24)), "kg/h")
        ton_h = TimeSeries(kg_h.values_in("ton/h"), "ton/h")

        def scenario(profile):
            return ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE,
                                  water_mode=Desalination(), capture_profile=profile)

        kept = scenario(kg_h)
        assert kept.capture_profile == ton_h and kept.capture_profile.unit == "ton/h"
        assert scenario(ton_h).capture_profile is ton_h   # already in ton/h: the same object
        assert kept == scenario(ton_h) and not hasattr(kept, "captured")
        assert total_daily_cost(kept).ledger == total_daily_cost(scenario(ton_h)).ledger

    def test_bad_capture_profile_rejected_when_the_scenario_is_built(self):
        from ewhnexus.quantities import TimeSeries, UnitError
        with pytest.raises(UnitError, match="mass flow"):
            ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE,
                           water_mode=Desalination(),
                           capture_profile=TimeSeries((10.0,) * 24, "m3/h"))
        with pytest.raises(DomainError, match="24"):
            ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE,
                           water_mode=Desalination(),
                           capture_profile=TimeSeries((115.0,) * 23, "ton/h"))


SOLAR_PRESET = replace(paper_2024(), econ=replace(paper_2024().econ, c_sw=2.5e5))
water_modes = st.sampled_from([Desalination(), SolarSeawater()]) | st.builds(
    NetworkTransfer, st.builds(Quantity, st.floats(0.0, 1000.0), st.just("km")))


class TestTotalsAgainstTheLedger:
    """The totals ``total_daily_cost`` takes from its amounts equal the ledger's own."""

    @settings(max_examples=300, deadline=None)
    @given(plant=st.sampled_from(SOLAR_PRESET.plants),
           product=st.sampled_from(SOLAR_PRESET.products),
           beta=st.sampled_from([0.5, 1.0, 5e-324]) | st.floats(0.0, 1.0, exclude_min=True),
           mode=water_modes, hydrogen=st.booleans(),
           load=st.none() | st.lists(st.floats(0.0, 1.0), min_size=24, max_size=24))
    def test_totals_and_metrics_equal_the_oracles(self, plant, product, beta, mode,
                                                  hydrogen, load):
        cell_econ = replace(SOLAR_PRESET.econ_for(plant), include_hydrogen_capital=hydrogen)
        profile = None if load is None else TimeSeries(
            tuple(plant.cbar * x for x in load), "ton/h")
        result = total_daily_cost(ScenarioConfig(
            plant=plant, econ=cell_econ, beta=beta, product=product, water_mode=mode,
            capture_profile=profile))
        ledger = result.ledger
        assert result.daily_cost.magnitude == ledger.daily_total()
        assert [i.amount for i in ledger.items if i.term == "capital-charge"] == [
            daily_capital_charge(ledger.capital_total(), cell_econ)]
        daily = result.daily_cost.magnitude
        assert result.increased_price == Quantity(daily / plant.capacity_kw, "$/kWh")
        assert result.carbon_penalty == Quantity(daily / plant.cbar_day, "$/ton")


def failure(call) -> tuple[type, str] | None:
    """The type and message of the ValueError ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def fsum_or_inf(amounts) -> float:
    try:
        return math.fsum(amounts)
    except OverflowError:
        return math.inf


def expected_failure(rows, plant, cell_econ) -> tuple[type, str] | None:
    """The error a cell with these ledger rows must raise, from fsums of the rows: the first
    non-finite amount in ledger order, then the capital charge, daily cost, price uplift
    and carbon penalty."""
    for row in rows:
        if not math.isfinite(row.amount):
            return DomainError, f"ledger amount must be finite ({row.label})"
    charge = daily_capital_charge(fsum_or_inf(r.amount for r in rows if r.unit == "$"),
                                  cell_econ)
    if not math.isfinite(charge):
        return DomainError, "ledger amount must be finite (daily capital charge)"
    daily = fsum_or_inf([r.amount for r in rows if r.unit == "$/day"] + [charge])
    for metric in (daily, daily / plant.capacity_kw, daily / plant.cbar_day):
        if not math.isfinite(metric):
            return UnitError, f"magnitude must be finite, got {metric!r}"
    return None


def column_of(cell: ScenarioConfig):
    """The column ``total_daily_cost`` sets up for a full-load cell."""
    return economics._column(cell.plant, cell.econ, cell.product if cell.beta > 0 else None,
                             cell.water_mode)


class TestDailyAgainstTheResult:
    """``_daily``, the one daily-total rule, gives the metrics ``total_daily_cost`` reports,
    bit for bit, and fails as the ledger rows say it must."""

    @settings(max_examples=300, deadline=None)
    @given(plant=st.sampled_from(SOLAR_PRESET.plants),
           product=st.sampled_from(SOLAR_PRESET.products),
           beta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           mode=water_modes, hydrogen=st.booleans(),
           bad=st.sampled_from([math.inf, -math.inf, math.nan]) | st.floats(1e307, 1.7e308),
           at=st.sets(st.integers(0, 6), min_size=1, max_size=3))
    @example(plant=SOLAR_PRESET.plants[0], product=METHANE, beta=1.0, mode=Desalination(),
             hydrogen=True, bad=1.7e308, at={2, 3})   # the capital overflows
    @example(plant=SOLAR_PRESET.plants[0], product=METHANE, beta=1.0, mode=Desalination(),
             hydrogen=False, bad=1.7e308, at={1, 5})   # the flows overflow
    def test_same_totals_and_errors(self, plant, product, beta, mode, hydrogen, bad, at):
        cell_econ = replace(SOLAR_PRESET.econ_for(plant), include_hydrogen_capital=hydrogen)
        cell = ScenarioConfig(plant=plant, econ=cell_econ, beta=beta, product=product,
                              water_mode=mode)
        column = column_of(cell)
        terms = economics._terms(column, beta)
        charge, daily, price, penalty, *_ = economics._daily(terms, column)
        result = total_daily_cost(cell)
        rows = result.ledger.items
        assert [r.amount.hex() for r in rows if r.term == "capital-charge"] == [charge.hex()]
        assert result.daily_cost.magnitude.hex() == daily.hex()
        assert result.increased_price.magnitude == price
        assert result.carbon_penalty.magnitude == penalty
        assert all(type(r) is LedgerItem and r == LedgerItem(*r) for r in rows)
        # bad amounts where the cell has terms: a non-finite one fails on the first such
        # row, in ledger order; huge finite ones may overflow a total
        present = [i for i, t in enumerate(terms) if t is not None]
        at = sorted(at & set(present))
        broken = tuple(bad if i in at else t for i, t in enumerate(terms))
        expected = expected_failure(economics._rows(broken, column[5], 0.0)[:-1], plant,
                                    cell_econ)
        assert failure(lambda: economics._daily(broken, column)) == expected
        if at and not math.isfinite(bad):
            label = economics._rows(terms, column[5], 0.0)[present.index(at[0])].label
            assert expected == (DomainError, f"ledger amount must be finite ({label})")

    @pytest.mark.parametrize("cell", [
        ScenarioConfig(plant=BIOMASS, econ=econ(r_ccs=6e304, elec_price=1e303), beta=1.0,
                       product=METHANE, water_mode=Desalination()),
        # a 1e-300 kW plant: a finite daily cost over its capacity overflows
        ScenarioConfig(plant=PlantSpec("heavy", Quantity(1e-300, "kW"), Quantity(1e306, "kg/kWh")),
                       econ=econ(r_ccs=1e6)),
        # a near-zero carbon rate: the pipe's capital over the daily carbon mass overflows
        ScenarioConfig(plant=PlantSpec("light", Quantity(500, "MW"), Quantity(1e-310, "kg/kWh")),
                       econ=econ(), beta=1.0, product=METHANE,
                       water_mode=NetworkTransfer(Quantity(100.0, "km"))),
    ], ids=["daily-cost", "price", "penalty"])
    def test_a_metric_that_overflows_fails_both(self, cell):
        column = column_of(cell)
        terms = economics._terms(column, cell.beta)
        expected = (UnitError, "magnitude must be finite, got inf")
        assert failure(lambda: total_daily_cost(cell)) == expected
        assert failure(lambda: economics._daily(terms, column)) == expected

    @pytest.mark.parametrize("plant, cell_econ, product, mode", [
        # a 1e-300 kW plant: its storage cell's price uplift overflows
        (PlantSpec("heavy", Quantity(1e-300, "kW"), Quantity(1e306, "kg/kWh")), econ(r_ccs=1e6),
         None, Desalination()),
        # a near-zero carbon rate: its methane cell's penalty overflows
        (PlantSpec("light", Quantity(500, "MW"), Quantity(1e-310, "kg/kWh")), econ(), METHANE,
         NetworkTransfer(Quantity(100.0, "km"))),
    ], ids=["price", "penalty"])
    def test_a_metric_that_overflows_fails_its_sweep_cell_alike(self, plant, cell_econ, product,
                                                                mode):
        # _daily checks each metric once; the result's quantities do not check again
        beta = 1.0 if product else 0.0
        cell = ScenarioConfig(plant=plant, econ=cell_econ, beta=beta, product=product,
                              water_mode=mode)
        expected = (UnitError, "magnitude must be finite, got inf")
        assert failure(lambda: total_daily_cost(cell)) == expected
        grid = SweepGrid([plant], [product] if product else [], [1.0], mode)
        name = product.name if product else ""
        [swept] = [c for c in scenario_sweep(grid, cell_econ)
                   if (c.product, c.beta) == (name, beta)]
        assert swept.result is None
        assert swept.error == f"cell ({plant.name}, {name or '-'}, beta={beta:g}): {expected[1]}"


def outcome(call) -> tuple:
    """The ``.hex()`` of each float ``call()`` returns, or the type and message it raises."""
    try:
        return tuple(x.hex() for x in call())
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def ledger_row(column, beta) -> tuple[float, ...]:
    """A sweep row's floats read from ``_result``'s ledger totals and metrics."""
    result = economics._result(column, beta)
    capital, _, operations, revenue = result.ledger.totals()
    return (capital, operations, revenue, *(metric.magnitude for metric in result[1:]))


def jittered(plant: PlantSpec, capacity: float, emission: float) -> PlantSpec:
    return PlantSpec(plant.name, Quantity(plant.capacity.magnitude * capacity, plant.capacity.unit),
                     Quantity(plant.emission_factor.magnitude * emission,
                              plant.emission_factor.unit))


class TestPriceRowAgainstTheLedger:
    """``_price_row`` gives a sweep row's floats as ``_result``'s ledger totals and metrics,
    bit for bit, and raises ``_result``'s error where it raises."""

    scale = st.floats(0.5, 2.0)
    hours = st.lists(st.floats(0.0, 1.0), min_size=24, max_size=24)

    @settings(max_examples=400, deadline=None)
    @given(plant=st.sampled_from(SOLAR_PRESET.plants), capacity=scale, emission=scale,
           product=st.none() | st.sampled_from(SOLAR_PRESET.products),
           beta=st.sampled_from([1.0, 5e-324]) | st.floats(0.0, 1.0),
           mode=water_modes, hydrogen=st.booleans(), zero_prices=st.booleans(),
           load=st.none() | hours | st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=24,
                                             max_size=24),
           huge=st.just({}) | st.dictionaries(
               st.sampled_from(["elec_price", "r_ccs", "c_wind", "c_des"]),
               st.builds(lambda x: 10.0 ** x, st.floats(300.0, 308.2)), max_size=2))
    @example(plant=SOLAR_PRESET.plants[2], capacity=1.0, emission=1.0, product=METHANOL,
             beta=1.0, mode=Desalination(), hydrogen=True, zero_prices=True, load=None,
             huge={})   # the revenue is -0.0, whose fsum is 0.0
    @example(plant=SOLAR_PRESET.plants[0], capacity=1.0, emission=1.0, product=METHANE,
             beta=1.0, mode=Desalination(), hydrogen=False, zero_prices=False, load=None,
             huge={"c_wind": 5e301, "c_des": 6e305})   # the capital stock overflows
    @example(plant=SOLAR_PRESET.plants[0], capacity=1.0, emission=1.0, product=METHANE,
             beta=1.0, mode=Desalination(), hydrogen=False, zero_prices=False, load=None,
             huge={"r_ccs": 4e304, "elec_price": 5e303})   # the daily cost overflows
    def test_same_floats_and_errors(self, plant, capacity, emission, product, beta, mode,
                                    hydrogen, zero_prices, load, huge):
        plant = jittered(plant, capacity, emission)
        cell_econ = replace(SOLAR_PRESET.econ_for(plant), include_hydrogen_capital=hydrogen)
        if zero_prices:
            cell_econ = replace(cell_econ, product_prices={
                name: 0.0 for name in cell_econ.product_prices})
        cell_econ = replace(cell_econ, **huge)   # costs that overflow an amount or a total
        runs = None if load is None else economics._hour_runs(
            tuple(plant.cbar * x for x in load))
        column = economics._column(plant, cell_econ, product, mode, runs)
        beta = beta if product is not None else 0.0
        expected = outcome(lambda: ledger_row(column, beta))
        assert outcome(lambda: economics._price_row(column, beta)) == expected


class TestSweepAgainstTheCell:
    """A sweep prices each (plant, beta)'s storage side once for every product; each cell
    still has the bits and the error of that cell priced alone."""

    @settings(max_examples=150, deadline=None)
    @given(plants=st.lists(st.sampled_from(SOLAR_PRESET.plants), min_size=1, max_size=3,
                           unique_by=lambda p: p.name),
           scale=st.floats(0.5, 2.0),
           products=st.lists(st.sampled_from(SOLAR_PRESET.products), max_size=3,
                             unique_by=lambda p: p.name),
           betas=st.lists(st.sampled_from([1.0, 5e-324]) | st.floats(0.0, 1.0,
                                                                      exclude_min=True),
                          min_size=1, max_size=4, unique=True),
           mode=water_modes, hydrogen=st.booleans(),
           over=st.sampled_from([{}, {"c_ccs": None}, {"c_sw": None}, {"product_prices": {}}])
           | st.dictionaries(st.sampled_from(["r_ccs", "c_cts", "elec_price", "c_wind"]),
                             st.builds(lambda x: 10.0 ** x, st.floats(300.0, 308.2)),
                             max_size=2))
    @example(plants=list(SOLAR_PRESET.plants), scale=1.0, products=[METHANE], betas=[0.5, 1.0],
             mode=Desalination(), hydrogen=False, over={"r_ccs": 1e307})   # the storage side
    def test_each_cell_is_the_cell_priced_alone(self, plants, scale, products, betas, mode,
                                                hydrogen, over):
        plants = [jittered(p, scale, 1.0) for p in plants]

        def cell_econ(plant: PlantSpec) -> EconParams:
            return replace(SOLAR_PRESET.econ_for(plant), include_hydrogen_capital=hydrogen,
                           **over)

        cells = scenario_sweep(SweepGrid(plants, products, betas, mode), SOLAR_PRESET.econ,
                               econ_resolver=cell_econ)
        alone = []
        for plant in plants:
            for product, beta in [(None, 0.0)] + [(p, b) for p in products
                                                  for b in sorted(betas)]:
                name = product.name if product else ""
                try:
                    alone.append(SweepCell(plant.name, name, beta, total_daily_cost(
                        ScenarioConfig(plant=plant, econ=cell_econ(plant), beta=beta,
                                       product=product, water_mode=mode))))
                except ValueError as exc:
                    alone.append(SweepCell(plant.name, name, beta, error=(
                        f"cell ({plant.name}, {name or '-'}, beta={beta:g}): {exc}")))
        assert repr(cells) == repr(tuple(alone))
        if over == {"r_ccs": 1e307}:   # every cell's storage side overflows
            assert all("(capture and transfer operations)" in c.error for c in cells)


def fold(terms) -> float:
    """Left-to-right float sum from 0.0, the order the hourly sums are pinned to."""
    total = 0.0
    for t in terms:
        total += t
    return total


class TestHourlySums:
    """Hourly sums add left to right, not as ``sum()``, which compensates on Python 3.12.

    The kernels take the day as ``(value, hours)`` runs of equal hours; a run's amount is
    computed once and added once per hour, so any split of a day into runs prices it as
    the per-hour fold does, bit for bit."""

    hour = st.floats(0.0, 1e4, allow_subnormal=False)
    # full-load days (every hour equal) and uneven ones
    days = (st.builds(lambda c: [c] * 24, hour)
            | st.lists(hour, min_size=24, max_size=24)
            | st.lists(st.sampled_from([0.1, 0.7, 1e-3, 115.0]), min_size=24, max_size=24))

    @settings(max_examples=300, deadline=None)
    @given(captured=days, beta=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
           product=st.sampled_from([METHANE, METHANOL, ETHANOL]))
    def test_equal_a_left_to_right_fold(self, captured, beta, product):
        params = econ()
        runs = economics._hour_runs(captured)
        per_ton = (1.0 - beta) * params.r_cts + params.r_ccs
        assert ccss.ccss_operational(beta, runs, params) == fold(
            c * per_ton for c in captured)
        k = params.product_prices[product.name] * product.xi_chi * beta
        assert conversion.chemical_revenue(product, runs, beta, params) == -fold(
            k * c for c in captured)

    def test_a_day_where_compensation_differs(self):
        # 24 x 0.1 folds to 2.400000000000001; compensated summation gives 2.4000000000000004
        params = econ(r_cts=0.0, r_ccs=1.0)
        assert ccss.ccss_operational(0.0, ((0.1, 24),), params) == 2.400000000000001
        assert add_hourly(0.0, 0.1, 24) == 2.400000000000001

    edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf,
                            -math.inf, math.nan, 1.7e308, -1.7e308, 0.1])

    @settings(max_examples=2000, deadline=None)
    @given(total=edge | st.floats(), amount=edge | st.floats(), hours=st.integers(-2, 60))
    @example(total=0.0, amount=0.1, hours=24)
    @example(total=-0.0, amount=-0.0, hours=0)
    @example(total=1.0, amount=0.1, hours=7)
    @example(total=1.0, amount=0.1, hours=8)
    @example(total=-0.0, amount=0.1, hours=25)
    def test_add_hourly_is_the_per_hour_fold(self, total, amount, hours):
        # by .hex(), so the sign of a zero counts and a NaN equals a NaN
        expected = total
        for _ in range(hours):
            expected += amount
        assert add_hourly(total, amount, hours).hex() == expected.hex()

    @settings(max_examples=300, deadline=None)
    @given(captured=days | st.lists(st.sampled_from([0.0, -0.0, 57.5, 115.0]),
                                    min_size=24, max_size=24),
           cuts=st.sets(st.integers(1, HOURS_PER_DAY - 1)),
           beta=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
           product=st.sampled_from([METHANE, METHANOL, ETHANOL]),
           mode=st.sampled_from([Desalination(), NetworkTransfer(Quantity(150.0, "km"))]))
    def test_any_split_into_runs_prices_every_hour(self, captured, cuts, beta, product, mode):
        # the maximal runs, then the same day cut at more hours as well
        maximal = economics._hour_runs(captured)
        assert [c for c, n in maximal for _ in range(n)] == captured
        assert all(a[0] != b[0] for a, b in zip(maximal, maximal[1:]))
        bounds = [0, *sorted(cuts | {h for h in range(1, HOURS_PER_DAY)
                                     if captured[h] != captured[h - 1]}), HOURS_PER_DAY]
        split = tuple((captured[a], b - a) for a, b in zip(bounds, bounds[1:]))
        params = econ()
        per_ton = (1.0 - beta) * params.r_cts + params.r_ccs
        k = params.product_prices[product.name] * product.xi_chi * beta
        k_w = product.water_demand * beta
        w_max = max(k_w * c for c in captured) or 1.0
        r_w = water.effective_r_w(params, mode.km) if isinstance(mode, NetworkTransfer) else 0.0

        def bill(f):   # one hour's grid bill at flow f [$]
            if isinstance(mode, Desalination):
                return params.elec_price * water.desal_power(f, w_max, params)
            return params.elec_price * water.pump_power(f, r_w, params.eta_pump)

        for runs in (maximal, split):
            assert ccss.ccss_operational(beta, runs, params).hex() == fold(
                c * per_ton for c in captured).hex()
            assert conversion.chemical_revenue(product, runs, beta, params).hex() == (
                -fold(k * c for c in captured)).hex()
            assert water.water_operational(mode, w_max, runs, k_w, params).hex() == fold(
                bill(k_w * c) for c in captured).hex()

    def test_a_profile_prices_as_the_hourly_fold(self):
        cbar = BIOMASS.cbar
        captured = (cbar,) * 8 + (cbar / 2,) * 16
        cell = ScenarioConfig(plant=BIOMASS, econ=econ(), beta=0.5, product=METHANE,
                              water_mode=Desalination(),
                              capture_profile=TimeSeries(captured, "ton/h"))
        assert economics._hour_runs(captured) == ((cbar, 8), (cbar / 2, 16))
        params, w_max = cell.econ, conversion._reuse_rates(METHANE, cbar, 0.5)[1]
        per_ton = (1.0 - 0.5) * params.r_cts + params.r_ccs
        k = params.product_prices["methane"] * METHANE.xi_chi * 0.5
        k_w = METHANE.water_demand * 0.5
        rows = {i.term: i.amount for i in total_daily_cost(cell).ledger.items}
        assert rows["ccss-operational"] == fold(c * per_ton for c in captured)
        assert rows["product-revenue"] == -fold(k * c for c in captured)
        assert rows["water-operational"] == fold(
            params.elec_price * water.desal_power(k_w * c, w_max, params) for c in captured)


class TestHotPath:
    """What a sweep cell does and does not repeat: counts, not timings."""

    @staticmethod
    def count_quantities(monkeypatch) -> list:
        built = []
        original = Quantity.__post_init__

        def counting(self):
            built.append(self.unit)
            original(self)

        monkeypatch.setattr(Quantity, "__post_init__", counting)
        return built

    @staticmethod
    def forbid_nexus_rates(monkeypatch) -> None:
        def forbidden(*args, **kwargs):
            raise AssertionError("nexus_rates called inside a sweep cell")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ewhnexus" and hasattr(module, "nexus_rates"):
                monkeypatch.setattr(module, "nexus_rates", forbidden)

    @pytest.mark.parametrize("mode", [
        Desalination(), SolarSeawater(), NetworkTransfer(Quantity(150.0, "km")),
    ], ids=["desalination", "solar", "transfer"])
    def test_reuse_cell_builds_few_quantities(self, monkeypatch, mode):
        cfg = paper_2024()
        cfg = replace(cfg, econ=replace(cfg.econ, c_sw=2.5e5))
        plant, product = cfg.plant("coal"), cfg.product("methanol")
        self.forbid_nexus_rates(monkeypatch)
        built = self.count_quantities(monkeypatch)

        econ = cfg.econ_for(plant)
        assert built == []
        result = total_daily_cost(ScenarioConfig(plant=plant, econ=econ, beta=1.0,
                                                 product=product, water_mode=mode))
        assert built == []
        # the results are the public type all the same
        assert all(type(q) is Quantity for q in (
            result.daily_cost, result.increased_price, result.carbon_penalty))
        assert [q.unit for q in (result.daily_cost, result.increased_price,
                                 result.carbon_penalty)] == ["$/day", "$/kWh", "$/ton"]

    def test_sweep_cell_runs_no_econ_validation(self, monkeypatch):
        cfg = paper_2024()
        runs = []
        original = EconParams.__post_init__

        def counting(self):
            runs.append(self)
            original(self)

        monkeypatch.setattr(EconParams, "__post_init__", counting)
        cells = cfg.sweep()
        assert all(c.error is None for c in cells) and len(cells) == 21
        assert runs == []

    @pytest.mark.parametrize("mode", [
        Desalination(), SolarSeawater(), NetworkTransfer(Quantity(150.0, "km")),
    ], ids=["desalination", "solar", "transfer"])
    def test_sweep_prices_each_cell_once_and_checks_no_scenario(self, monkeypatch, mode):
        # the grid has checked every input, so no cell builds a ScenarioConfig; each
        # (plant, product) column and storage row is set up once, each cell prices its
        # beta, and the storage side (the ccss pair) once per (plant, beta), on the storage
        # column, for the cells of every product at that beta
        grid = SweepGrid(SOLAR_PRESET.plants, SOLAR_PRESET.products, SOLAR_PRESET.sweep_betas,
                         mode)
        set_up, priced, storage_side, checked = [], [], [], []
        column, terms = economics._column, economics._terms
        capital, operational = ccss.ccss_capital, ccss.ccss_operational
        post_init = ScenarioConfig.__post_init__

        def counting_column(plant, econ, product, *args):
            set_up.append((plant.name, product.name if product is not None else ""))
            return column(plant, econ, product, *args)

        def counting_terms(col, beta, storage=None):
            priced.append((col[0].name, col[2] is not None, beta, storage is not None))
            return terms(col, beta, storage)

        def counting_capital(beta, cbar_day, econ):
            storage_side.append(("capital", cbar_day, beta))
            return capital(beta, cbar_day, econ)

        def counting_operational(beta, captured, econ):
            storage_side.append(("operations", captured, beta))
            return operational(beta, captured, econ)

        def checking(self):
            checked.append(self)
            post_init(self)

        monkeypatch.setattr(economics, "_column", counting_column)
        monkeypatch.setattr(economics, "_terms", counting_terms)
        monkeypatch.setattr(ccss, "ccss_capital", counting_capital)
        monkeypatch.setattr(ccss, "ccss_operational", counting_operational)
        monkeypatch.setattr(ScenarioConfig, "__post_init__", checking)
        cells = scenario_sweep(grid, SOLAR_PRESET.econ, econ_resolver=SOLAR_PRESET.econ_for)
        assert all(c.error is None for c in cells) and len(cells) == 21
        assert set_up == [(plant.name, product) for plant in grid.plants
                          for product in [""] + [p.name for p in grid.products]]
        betas = sorted(grid.betas)
        # per plant: the storage cell, the storage column at each beta, then each product cell
        assert priced == [entry for plant in grid.plants for entry in [
            (plant.name, False, 0.0, False), *((plant.name, False, b, False) for b in betas),
            *((plant.name, True, b, True) for _ in grid.products for b in betas)]]
        assert storage_side == [
            entry for plant in grid.plants for b in [0.0, *betas] for entry in [
                ("capital", plant.cbar_day, b), ("operations", ((plant.cbar, 24),), b)]]
        assert len(storage_side) == 2 * 9 and checked == []
        # a grid of no product prices no beta but the storage row's
        storage_side.clear()
        scenario_sweep(SweepGrid(grid.plants, (), grid.betas, mode), SOLAR_PRESET.econ,
                       econ_resolver=SOLAR_PRESET.econ_for)
        assert [b for _, _, b in storage_side] == [0.0, 0.0] * len(grid.plants)

    def test_preset_sweep_calibrates_each_plant_once(self):
        cfg = paper_2024()
        grid = SweepGrid(cfg.plants, cfg.products, cfg.sweep_betas, cfg.water_mode)
        calls = []

        def resolve(plant):
            calls.append(plant)
            return cfg.econ_for(plant)

        cells = scenario_sweep(grid, cfg.econ, econ_resolver=resolve)
        assert all(c.error is None for c in cells) and len(cells) == 21
        assert calls == list(cfg.plants)
        assert repr(cells) == repr(cfg.sweep())

    def test_core_built_result_still_rejects_overflow(self):
        # a 1e-300 kW plant turns any sizable daily cost into an infinite price uplift
        tiny = PlantSpec("tiny", Quantity(1e-300, "kW"), Quantity(820, "g/kWh"))
        with pytest.raises(UnitError, match="magnitude must be finite, got inf"):
            # a pipe's capital does not shrink with the plant: 1e9 $/m over 100 km
            total_daily_cost(ScenarioConfig(plant=tiny, econ=econ(c_tw=1e9), beta=1.0,
                                            product=METHANE,
                                            water_mode=NetworkTransfer(Quantity(100.0, "km"))))
        # or a storage scenario: 1000 ton/h at 1e6 $/ton is a finite daily cost
        heavy = PlantSpec("heavy", Quantity(1e-300, "kW"), Quantity(1e306, "kg/kWh"))
        with pytest.raises(UnitError, match="magnitude must be finite, got inf"):
            total_daily_cost(ScenarioConfig(plant=heavy, econ=econ(r_ccs=1e6), beta=0.0))

    def test_overflowing_term_still_rejected_by_its_ledger_item(self):
        huge = PlantSpec("huge", Quantity(1e300, "MW"), Quantity(1e3, "kg/kWh"))
        with pytest.raises(DomainError) as info:
            total_daily_cost(ScenarioConfig(plant=huge, econ=econ(), beta=0.0))
        assert str(info.value) == ("ledger amount must be finite "
                                   "(capture and storage pipeline capital)")

    @pytest.mark.parametrize("mode, priced_by", [
        (Desalination(), "desal_power"),
        (NetworkTransfer(Quantity(150.0, "km")), "pump_power"),
    ], ids=["desalination", "transfer"])
    def test_full_load_day_prices_one_hour(self, monkeypatch, mode, priced_by):
        cfg = paper_2024()
        plant, product = cfg.plant("coal"), cfg.product("methanol")
        calls = []
        original = getattr(water, priced_by)

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(water, priced_by, counting)
        econ = cfg.econ_for(plant)
        total_daily_cost(ScenarioConfig(plant=plant, econ=econ, beta=1.0,
                                        product=product, water_mode=mode))
        assert len(calls) == 1, calls


MODES = {"desalination": Desalination(), "solar": SolarSeawater(),
         "transfer": NetworkTransfer(Quantity(150.0, "km"))}


def built_results(mode) -> list:
    """The results of every preset sweep cell in ``mode``, then of coal's storage and
    methanol cells by ``total_daily_cost``, without and with the electrolyzer's capital."""
    grid = SweepGrid(SOLAR_PRESET.plants, SOLAR_PRESET.products, SOLAR_PRESET.sweep_betas, mode)
    cells = scenario_sweep(grid, SOLAR_PRESET.econ, econ_resolver=SOLAR_PRESET.econ_for)
    assert all(c.error is None for c in cells) and len(cells) == 21
    coal = SOLAR_PRESET.plant("coal")
    return [c.result for c in cells] + [
        total_daily_cost(ScenarioConfig(
            plant=coal, beta=beta, product=METHANOL if beta else None, water_mode=mode,
            econ=replace(SOLAR_PRESET.econ_for(coal), include_hydrogen_capital=hydrogen)))
        for hydrogen in (False, True) for beta in (0.0, 0.5, 1.0)]


class TestResultContract:
    """A result built through its slots is the value the checked constructors build."""

    @pytest.mark.parametrize("mode", MODES.values(), ids=MODES)
    def test_metrics_are_checked_quantities(self, mode):
        for result in built_results(mode):
            for metric, unit in zip(result[1:], ("$/day", "$/kWh", "$/ton")):
                checked = Quantity(metric.magnitude, unit)
                assert type(metric) is Quantity and metric == checked
                assert hash(metric) == hash(checked) and repr(metric) == repr(checked)
                assert metric.magnitude.hex() == checked.magnitude.hex()

    @pytest.mark.parametrize("mode", MODES.values(), ids=MODES)
    def test_ledgers_are_checked_ledgers(self, mode):
        for result in built_results(mode):
            ledger = result.ledger
            checked = CostLedger(tuple(LedgerItem(*row) for row in ledger.items))
            assert type(ledger) is CostLedger and type(ledger.items) is tuple
            assert ledger == checked and hash(ledger) == hash(checked)
            assert repr(ledger) == repr(checked) == f"CostLedger(items={ledger.items!r})"

    @pytest.mark.parametrize("mode", MODES.values(), ids=MODES)
    def test_frozen_and_copied_whole(self, mode):
        for result in built_results(mode):
            for built, names in ((result.ledger, ("items",)),
                                 *((metric, ("magnitude", "unit")) for metric in result[1:])):
                for name in names:
                    with pytest.raises(FrozenInstanceError):
                        setattr(built, name, getattr(built, name))
                assert not hasattr(built, "__dict__")
            for copied in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
                assert type(copied) is type(result) and copied == result
                assert repr(copied) == repr(result) and hash(copied) == hash(result)


class TestRows:
    """``_rows``: one tuple of rows per ledger shape, in ledger order, the charge's last."""

    HEAD = ["capture and storage pipeline capital", "capture and transfer operations"]
    REUSE = ["water system capital", "water system operations", "methanol sales"]

    @pytest.mark.parametrize("product, hydrogen, n, labels", [
        (None, False, 3, HEAD),
        (METHANOL, False, 7, HEAD + ["wind farm capital"] + REUSE),
        (METHANOL, True, 8, HEAD + ["wind farm capital", "electrolyzer capital"] + REUSE),
    ], ids=["storage", "reuse", "reuse-electrolyzer"])
    def test_one_tuple_per_shape(self, product, hydrogen, n, labels):
        coal = SOLAR_PRESET.plant("coal")
        cell_econ = replace(SOLAR_PRESET.econ_for(coal), include_hydrogen_capital=hydrogen)
        column = economics._column(coal, cell_econ, product, Desalination())
        beta = 0.0 if product is None else 0.5
        terms = economics._terms(column, beta)
        charge = economics._daily(terms, column)[0]
        rows = economics._rows(terms, column[5], charge)
        assert type(rows) is tuple and len(rows) == n
        assert [r.label for r in rows] == labels + ["daily capital charge"]
        assert all(type(r) is LedgerItem and r == LedgerItem(*r) for r in rows)
        assert [r.amount for r in rows[:-1]] == [t for t in terms if t is not None]
        assert rows[-1] == ("daily capital charge", "capital-charge", "capital", charge, "$/day")
        assert economics._rows(terms, column[5], 0.0)[:-1] == rows[:-1]
        assert total_daily_cost(ScenarioConfig(plant=coal, econ=cell_econ, beta=beta,
                                               product=product, water_mode=Desalination())
                                ).ledger.items == rows
