"""Scenario sweeps, break-even search, transfer curves, penalty thresholds."""

import math
import pickle
import random
import re
import sys
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ewhnexus import analysis, ccss, conversion, economics, quantities, water
from ewhnexus.analysis import (
    BreakevenQuery, CurveCell, NoCrossingError, ReuseAll, StoreAll, SweepCell, SweepGrid,
    breakeven_distance, decide, penalty_threshold, scenario_sweep, scorecard,
    transfer_cost_curve,
)
from ewhnexus.config import ConfigError, LoadedConfig, paper_2024, paper_2024_reference
from ewhnexus.conversion import (
    ETHANOL, METHANE, METHANOL, ProductSpec, _reuse_rates, nexus_rates,
)
from ewhnexus.economics import (
    ScenarioConfig, ScenarioResult, daily_capital_charge, total_daily_cost,
)
from ewhnexus.quantities import CostLedger, DomainError, EconParams, PlantSpec, Quantity
from ewhnexus.water import (
    Desalination, NetworkTransfer, SolarSeawater, check_flow, effective_r_w, pump_power,
    water_capital,
)

CFG = paper_2024()
BIOMASS = CFG.plant("biomass")
GAS = CFG.plant("natural_gas")
COAL = CFG.plant("coal")
REFERENCE = paper_2024_reference()
# plant -> the published methane break-even distance [km]
BREAKEVEN_KM = {e["plant"]: float(e["value"]) for e in REFERENCE
                if e["quantity"] == "breakeven_distance_km"}


def plain_econ(**over):
    base = dict(elec_price=0.25, r_cts=15.0, r_ccs=45.0, c_cts=250.0, c_ccs=43080.0,
                c_wind=1030.0, c_des=2e5, c_tw=160.0,
                wind_capacity_factor=0.423, eta_pump=0.9,
                product_prices={"methane": 1400.0, "methanol": 616.0, "ethanol": 493.0})
    base.update(over)
    return EconParams(**base)


class TestSweep:
    def test_reference_grid_has_21_rows(self):
        cells = CFG.sweep()
        assert len(cells) == 21
        assert all(c.error is None for c in cells)

    def test_ordering_plant_then_product_then_beta(self):
        grid = SweepGrid(plants=(BIOMASS, GAS), products=(METHANE, METHANOL),
                         betas=(1.0, 0.5), water_mode=CFG.water_mode)
        cells = scenario_sweep(grid, CFG.econ, econ_resolver=CFG.econ_for)
        coords = [(c.plant, c.product, c.beta) for c in cells]
        assert coords == [
            ("biomass", "", 0.0),
            ("biomass", "methane", 0.5), ("biomass", "methane", 1.0),
            ("biomass", "methanol", 0.5), ("biomass", "methanol", 1.0),
            ("natural_gas", "", 0.0),
            ("natural_gas", "methane", 0.5), ("natural_gas", "methane", 1.0),
            ("natural_gas", "methanol", 0.5), ("natural_gas", "methanol", 1.0),
        ]

    @pytest.mark.parametrize("betas, message", [
        ((0.5, 0.5), "betas[1]: repeated reuse fraction 0.5 (first at betas[0])"),
        ((1.0, 0.5, 1), "betas[2]: repeated reuse fraction 1 (first at betas[0])")],
        ids=["0.5-twice", "1.0-then-1"])
    def test_repeated_beta_rejected(self, betas, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            SweepGrid(plants=CFG.plants, products=CFG.products, betas=betas,
                      water_mode=CFG.water_mode)

    # a zero repeated as -0.0 is reported as the storage row, not as a repeat
    @pytest.mark.parametrize("betas, index", [((0.0,), 0), ((0.5, -0.0), 1), ((0.0, -0.0), 0)])
    def test_zero_beta_rejected_as_the_storage_row(self, betas, index):
        message = f"betas[{index}]: beta 0 is the storage row, which every plant gets"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            SweepGrid(plants=CFG.plants, products=CFG.products, betas=betas,
                      water_mode=CFG.water_mode)

    @pytest.mark.parametrize("betas", [
        (True,), ("0.5",), (1.5,), (math.nan,), (0.0,), (-0.0,), (0.5, 0.5), (1, 1.0),
        (0.5,), (1,), (5e-324, 1.0)], ids=repr)
    def test_grid_and_config_share_one_beta_rule(self, betas):
        # the grid raises the first line the config raises, named after its own field
        try:
            replace(CFG, sweep_betas=betas)
        except ConfigError as exc:
            expected = str(exc).split("\n  ")[0].replace("sweep.betas[", "betas[")
        else:
            expected = None
        try:
            SweepGrid(plants=CFG.plants, products=CFG.products, betas=betas,
                      water_mode=CFG.water_mode)
        except DomainError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_empty_products_gives_storage_rows_only(self):
        grid = SweepGrid(plants=CFG.plants, products=(), betas=CFG.sweep_betas,
                         water_mode=CFG.water_mode)
        cells = scenario_sweep(grid, CFG.econ, econ_resolver=CFG.econ_for)
        assert [(c.plant, c.product, c.beta) for c in cells] == [
            ("biomass", "", 0.0), ("natural_gas", "", 0.0), ("coal", "", 0.0)]

    def test_methane_column_cheaper_than_ethanol_at_full_reuse(self):
        grid = SweepGrid(plants=CFG.plants, products=(METHANE, ETHANOL), betas=(1.0,),
                         water_mode=CFG.water_mode)
        cells = scenario_sweep(grid, CFG.econ, econ_resolver=CFG.econ_for)
        by_coord = {(c.plant, c.product): c.result for c in cells if c.product}
        for plant in ("biomass", "natural_gas", "coal"):
            methane = by_coord[(plant, "methane")].daily_cost.value_in("$/day")
            ethanol = by_coord[(plant, "ethanol")].daily_cost.value_in("$/day")
            assert methane < ethanol

    def test_deterministic_bit_identical_output(self):
        a, b = CFG.sweep(), CFG.sweep()
        for ca, cb in zip(a, b):
            assert ca.result.daily_cost.magnitude == cb.result.daily_cost.magnitude
            assert ca.result.ledger == cb.result.ledger

    def test_failing_cell_reports_coordinates_without_aborting(self):
        badecon = plain_econ(product_prices={"methane": 1400.0, "ethanol": 493.0})
        grid = SweepGrid(plants=(BIOMASS,), products=(METHANE, METHANOL), betas=(1.0,),
                         water_mode=CFG.water_mode)
        cells = scenario_sweep(grid, badecon)
        errors = [c for c in cells if c.error is not None]
        fine = [c for c in cells if c.result is not None]
        assert len(errors) == 1 and "methanol" in errors[0].error
        assert "biomass" in errors[0].error
        assert len(fine) == 2  # storage row and the methane cell still evaluate

    def test_invalid_beta_rejected_by_grid(self):
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            SweepGrid(plants=(BIOMASS,), products=(), betas=(1.2,), water_mode=CFG.water_mode)

    @pytest.mark.parametrize("mode", [None, Desalination, "desalination"],
                             ids=["none", "mode-class", "mode-name"])
    def test_grid_rejects_what_is_not_a_water_mode(self, mode):
        # with the scenario's own message, so a sweep cell need not check its mode again
        message = f"unsupported water mode {mode!r}"
        with pytest.raises(DomainError) as info:
            SweepGrid(plants=CFG.plants, products=CFG.products, betas=CFG.sweep_betas,
                      water_mode=mode)
        assert str(info.value) == message
        if mode is not None:   # a storage scenario needs no mode, but rejects a non-mode
            with pytest.raises(DomainError) as info:
                ScenarioConfig(plant=BIOMASS, econ=CFG.econ, water_mode=mode)
            assert str(info.value) == message


# the preset in each water mode; solar seawater needs its capital cost set
MODE_CONFIGS = (CFG, replace(CFG, water_mode=NetworkTransfer(Quantity(120.0, "km"))),
                replace(CFG, water_mode=SolarSeawater(), econ=replace(CFG.econ, c_sw=3e5)))


class TestSweepOrder:
    """Order does not matter: a sweep's cells depend on their own coordinates alone."""

    @settings(max_examples=40, deadline=None)
    @given(base=st.sampled_from(MODE_CONFIGS), plants=st.permutations(CFG.plants),
           products=st.permutations(CFG.products))
    def test_shuffled_plants_and_products_give_the_same_cells(self, base, plants, products):
        shuffled = replace(base, plants=tuple(plants), products=tuple(products))
        cells = {(c.plant, c.product, c.beta): repr(c) for c in base.sweep()}
        reordered = shuffled.sweep()
        # bit for bit: a float's repr is exact and tells -0.0 from 0.0
        assert {(c.plant, c.product, c.beta): repr(c) for c in reordered} == cells
        assert all(c.error is None for c in reordered)
        # each config's cells in its own order: plants, storage row, products, betas ascending
        betas = sorted(base.sweep_betas)
        assert [(c.plant, c.product, c.beta) for c in reordered] == [
            (p.name, name, b) for p in plants
            for name, bs in [("", [0.0])] + [(x.name, betas) for x in products] for b in bs]


class TestSweepRecords:
    """A sweep's cells and their results are named tuples with a dataclass's repr."""

    def cells(self) -> tuple[SweepCell, SweepCell]:
        """A computed storage cell and a methane cell that fails for want of a price."""
        grid = SweepGrid((BIOMASS,), (METHANE,), (1.0,), CFG.water_mode)
        computed, failed = scenario_sweep(grid, plain_econ(product_prices={"ethanol": 493.0}))
        assert computed.error is None and failed.result is None
        return computed, failed

    @staticmethod
    def dataclass_repr(record) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, record))
        return f"{type(record).__name__}({fields})"

    def test_fields_defaults_and_types(self):
        assert SweepCell._fields == ("plant", "product", "beta", "result", "error")
        assert ScenarioResult._fields == ("ledger", "daily_cost", "increased_price",
                                          "carbon_penalty")
        assert SweepCell("biomass", "", 0.0) == ("biomass", "", 0.0, None, None)
        computed, failed = self.cells()
        assert type(computed) is SweepCell and type(failed) is SweepCell
        assert type(computed.result) is ScenarioResult
        assert failed.error.startswith("cell (biomass, methane, beta=1): product-revenue: ")

    def test_repr_is_the_dataclass_repr(self):
        computed, failed = self.cells()
        for record in (computed, failed, computed.result):
            assert repr(record) == self.dataclass_repr(record)

    def test_immutable_and_picklable(self):
        computed, failed = self.cells()
        for record in (computed, failed, computed.result):
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
            with pytest.raises(AttributeError):
                record.note = "x"   # no instance dict
            assert not hasattr(record, "__dict__")
            back = pickle.loads(pickle.dumps(record))
            assert type(back) is type(record) and repr(back) == repr(record)
        assert computed._replace(error="x").error == "x" and computed.error is None


def scan_oracle(g, lo_km: int, hi_km: int) -> float | None:
    """1 km linear scan; returns the midpoint of the sign-change bracket."""
    prev_d, prev_g = lo_km, g(float(lo_km))
    for d in range(lo_km + 1, hi_km + 1):
        cur = g(float(d))
        if prev_g == 0.0:
            return float(prev_d)
        if (prev_g < 0) != (cur < 0):
            return prev_d + 0.5
        prev_d, prev_g = d, cur
    return None


def cost_gap(plant, product, econ):
    desal = total_daily_cost(ScenarioConfig(
        plant=plant, econ=econ, beta=1.0, product=product,
        water_mode=Desalination())).daily_cost.value_in("$/day")

    def g(d_km: float) -> float:
        cfg = ScenarioConfig(plant=plant, econ=econ, beta=1.0, product=product,
                             water_mode=NetworkTransfer(Quantity(d_km, "km")))
        return total_daily_cost(cfg).daily_cost.value_in("$/day") - desal

    return g


class TestBreakeven:
    def test_calibrated_distances_and_ordering(self):
        got = {}
        for plant in (BIOMASS, GAS, COAL):
            econ = CFG.econ_for(plant)
            q = BreakevenQuery(plant=plant, product=METHANE)
            got[plant.name] = breakeven_distance(q, econ).value_in("km")
        assert got == pytest.approx(BREAKEVEN_KM, abs=0.2)
        assert got["biomass"] < got["natural_gas"] < got["coal"]

    def test_calibrated_roots_hit_the_fitted_targets_exactly(self):
        # the friction coefficients were fitted to these distances, and the
        # closed form has no bracket width to blur them
        for plant in (BIOMASS, GAS, COAL):
            econ = CFG.econ_for(plant)
            root = breakeven_distance(BreakevenQuery(plant=plant, product=METHANE), econ)
            assert root.value_in("km") == pytest.approx(BREAKEVEN_KM[plant.name], abs=1e-6)

    def test_ordering_holds_with_uncalibrated_shared_friction(self):
        got = []
        for plant in (BIOMASS, GAS, COAL):
            econ = CFG.econ_for(plant)
            econ = replace(econ, r_w_per_100km=2e-4)
            q = BreakevenQuery(plant=plant, product=METHANE)
            got.append(breakeven_distance(q, econ).value_in("km"))
        assert got[0] < got[1] < got[2]

    def test_no_crossing_reports_both_endpoint_gaps(self):
        # an absurdly expensive pipe never beats desalination
        econ = CFG.econ_for(BIOMASS)
        econ = replace(econ, c_tw=1e6)
        q = BreakevenQuery(plant=BIOMASS, product=METHANE)
        with pytest.raises(NoCrossingError) as exc_info:
            breakeven_distance(q, econ)
        assert exc_info.value.g_lo > 0 and exc_info.value.g_hi > 0
        # a window that starts just past the calibrated 61 km root
        q = BreakevenQuery(plant=BIOMASS, product=METHANE, distance_bounds=(62.0, 1000.0))
        with pytest.raises(NoCrossingError) as exc_info:
            breakeven_distance(q, CFG.econ_for(BIOMASS))
        assert (exc_info.value.g_lo > 0) == (exc_info.value.g_hi > 0)

    @pytest.mark.parametrize("bounds, message", [
        ((10.0, 5.0), "distance bounds must satisfy d_lo < d_hi"),
        ((5.0, 5.0), "distance bounds must satisfy d_lo < d_hi"),
        # each end is checked when the query is built, so a solve never sees a bad one
        ((-5.0, 100.0), "d_lo must be finite and >= 0, got -5.0"),
        ((-1e-300, 10.0), "d_lo must be finite and >= 0, got -1e-300"),
        ((10.0, math.inf), "d_hi must be finite and >= 0, got inf"),
        ((math.nan, 100.0), "d_lo must be finite and >= 0, got nan"),
    ], ids=["reversed", "empty", "negative", "negative-tiny", "infinite", "nan"])
    def test_bounds_validation(self, bounds, message):
        with pytest.raises(DomainError) as info:
            BreakevenQuery(plant=BIOMASS, product=METHANE, distance_bounds=bounds)
        assert str(info.value) == message

    @pytest.mark.parametrize("other", [-5.0, 5.0], ids=["other-end-below", "other-end-above"])
    @pytest.mark.parametrize("end", [0, 1], ids=["lo", "hi"])
    def test_a_zero_gap_at_a_window_end_is_the_root(self, monkeypatch, end, other):
        # the window end itself, whichever sign the other end's gap has
        bounds = (20.0, 300.0)
        monkeypatch.setattr(analysis, "_minus_desal", lambda column: (
            None, None, lambda d: 0.0 if d == bounds[end] else other))
        query = BreakevenQuery(BIOMASS, METHANE, bounds)
        assert repr(breakeven_distance(query, CFG.econ_for(BIOMASS))) == repr(
            Quantity(bounds[end], "km"))

    def test_breakeven_agrees_with_scan_oracle_on_randomized_draws(self):
        rng = random.Random(20240801)
        done = 0
        attempts = 0
        while done < 20:
            attempts += 1
            assert attempts < 200, "could not find enough sign-changing draws"
            econ = CFG.econ_for(BIOMASS)
            econ = replace(
                econ,
                r_w_per_100km=10 ** rng.uniform(-4.0, -0.7),
                c_des=rng.uniform(5e4, 4e5),
                e_des=(3.5, 3.8, 4.1, rng.uniform(4.4, 12.0)),
                c_tw=rng.uniform(80.0, 400.0),
                interest_rate=rng.uniform(0.0, 0.08),
                horizon_years=rng.choice((5, 10, 20, 30)),
            )
            g = cost_gap(BIOMASS, METHANE, econ)
            if (g(1.0) > 0) == (g(1000.0) > 0):
                continue
            oracle = scan_oracle(g, 1, 1000)
            assert oracle is not None
            # the closed-form root is exact: the 0.5 km bound is the half-width
            # of the scan bracket, not slack for the solver
            q = BreakevenQuery(plant=BIOMASS, product=METHANE)
            root = breakeven_distance(q, econ).value_in("km")
            assert abs(root - oracle) <= 0.5 + 0.01, (root, oracle)
            done += 1


def solve_outcome(query: BreakevenQuery, econ: EconParams):
    """What ``breakeven_distance`` returns or raises, bit for bit."""
    try:
        return breakeven_distance(query, econ).magnitude.hex()
    except NoCrossingError as exc:
        return NoCrossingError, str(exc), exc.g_lo.hex(), exc.g_hi.hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def priced_per_scenario(column: tuple):
    """``_minus_desal`` with the break-even gap as the solve priced it before its terms
    were shared: two full scenarios."""
    plant, econ, product = column[:3]
    return None, None, cost_gap(plant, product, econ)


# no config prices it, so its revenue term raises
FORMIC_ACID = ProductSpec("formic_acid", {"C": 1, "H": 2, "O": 2})
# rates finite, but the wind capital and the pumping bill overflow
HUGE = PlantSpec("huge", Quantity(1e302, "MW"), Quantity(230, "g/kWh"))
# every decision metric divides by a capacity near 0
TINY = PlantSpec("tiny", Quantity(1e-300, "kW"), Quantity(820, "g/kWh"))


def rarely(common, rare):
    """Draws of ``rare`` one time in ten, else of ``common``."""
    return st.sampled_from([common] * 9 + [rare]).flatmap(lambda s: s)


@st.composite
def breakeven_cases(draw):
    plant = draw(rarely(st.sampled_from(CFG.plants) | st.builds(
        PlantSpec, st.just("drawn"), st.builds(Quantity, st.floats(1e-3, 1e4), st.just("MW")),
        st.builds(Quantity, st.floats(1.0, 2000.0), st.just("g/kWh"))),
        st.sampled_from([HUGE, TINY])))
    product = draw(rarely(st.sampled_from(CFG.products), st.just(FORMIC_ACID)))
    try:
        calibrated = CFG.calibration.apply(CFG.econ, plant)
    except DomainError:   # a capture capital spread over a carbon rate near 0 is infinite
        calibrated = replace(CFG.econ, c_ccs=1.0)
    over = draw(st.just({}) | st.fixed_dictionaries({}, optional={
        "c_ccs": rarely(st.floats(0.0, 1e6), st.none()),   # None: no capture capital set
        "include_hydrogen_capital": st.just(True),
        "c_tw": rarely(st.floats(0.0, 1e4), st.just(1e303)),
        "r_w_per_100km": st.floats(0.0, 1e-2),
        "c_des": st.floats(0.0, 1e6),
        "interest_rate": st.floats(0.0, 0.2),
        "horizon_years": st.integers(1, 60)}))
    # the preset's roots lie between 61 and 395 km; a window end is finite and >= 0
    # (BreakevenQuery rejects any other), and 1e306 km is no finite length in m
    lo = draw(rarely(st.floats(0.0, 20.0).map(lambda x: x * x), st.just(-0.0)))
    hi = draw(rarely(st.floats(400.5, 2000.0) | st.floats(lo, 2000.0, exclude_min=True),
                     st.just(1e306)))
    return BreakevenQuery(plant, product, (lo, hi)), replace(calibrated, **over)


class TestBreakevenAgainstFullScenarios:
    """The solve prices the mode-free terms once; the result and every error are unchanged."""

    @settings(max_examples=400, deadline=None)
    @given(case=breakeven_cases())
    @example(case=(BreakevenQuery(COAL, METHANE), replace(CFG.econ, c_ccs=None)))
    @example(case=(BreakevenQuery(HUGE, METHANE), CFG.econ_for(HUGE)))
    @example(case=(BreakevenQuery(TINY, METHANE), replace(CFG.econ, c_ccs=1.0)))
    @example(case=(BreakevenQuery(BIOMASS, FORMIC_ACID), CFG.econ_for(BIOMASS)))
    @example(case=(BreakevenQuery(BIOMASS, METHANE, (-0.0, 100.0)), CFG.econ_for(BIOMASS)))
    @example(case=(BreakevenQuery(BIOMASS, METHANE, (62.0, 1000.0)), CFG.econ_for(BIOMASS)))
    @example(case=(BreakevenQuery(GAS, ETHANOL, (10.0, 1e306)), CFG.econ_for(GAS)))
    @example(case=(BreakevenQuery(GAS, METHANOL),
                   replace(CFG.econ_for(GAS), include_hydrogen_capital=True)))
    @example(case=(BreakevenQuery(COAL, METHANE), replace(CFG.econ_for(COAL), c_tw=1e303)))
    @example(case=(BreakevenQuery(COAL, METHANE),
                   replace(CFG.econ_for(COAL), r_w_per_100km=1e302)))
    def test_outcome_matches_pricing_two_full_scenarios(self, case):
        query, econ = case
        with mock.patch.object(analysis, "_minus_desal", priced_per_scenario):
            expected = solve_outcome(query, econ)
        assert solve_outcome(query, econ) == expected

    @pytest.mark.parametrize("case, outcome", [
        ((COAL, replace(CFG.econ, c_ccs=None)),
         "ccss-capital: c_ccs (capture plant capital cost) is not configured"),
        ((HUGE, CFG.econ_for(HUGE)), "ledger amount must be finite (wind farm capital)"),
        ((COAL, replace(CFG.econ_for(COAL), c_tw=1e303)),
         "ledger amount must be finite (water system capital)"),
        ((COAL, replace(CFG.econ_for(COAL), r_w_per_100km=1e302)),
         "ledger amount must be finite (water system operations)"),
        ((BIOMASS, CFG.econ_for(BIOMASS)), None),
    ], ids=["unset-c_ccs", "huge-plant", "pipe-capital", "pumping", "preset"])
    def test_the_examples_reach_the_errors_they_are_for(self, case, outcome):
        plant, econ = case
        query = BreakevenQuery(plant, METHANE)
        if outcome is None:
            assert breakeven_distance(query, econ).value_in("km") == pytest.approx(
                BREAKEVEN_KM["biomass"])
        else:
            with pytest.raises(DomainError) as info:
                breakeven_distance(query, econ)
            assert str(info.value) == outcome


class TestWorkCounts:
    """The terms a solve or a curve prices, counted through the module attributes."""

    @staticmethod
    def counted(monkeypatch, calls: Counter, *targets) -> Counter:
        for module, name in targets:
            def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        return calls

    @staticmethod
    def count_quantities(monkeypatch, calls: Counter) -> Counter:
        """Every Quantity built, checked (``__post_init__``) or unchecked (``_quantity``, which
        ``_computed`` calls), in every package module that holds ``_quantity`` by name."""
        post_init, unchecked = Quantity.__post_init__, quantities._quantity

        def counting_post_init(self):
            calls["Quantity"] += 1
            post_init(self)

        def counting_unchecked(magnitude, unit):
            calls["Quantity"] += 1
            return unchecked(magnitude, unit)

        monkeypatch.setattr(Quantity, "__post_init__", counting_post_init)
        for name, module in list(sys.modules.items()):
            if name.startswith("ewhnexus") and vars(module).get("_quantity") is unchecked:
                monkeypatch.setattr(module, "_quantity", counting_unchecked)
        assert economics._quantity is counting_unchecked   # a result's metrics are counted
        return calls

    def test_one_solve_prices_each_mode_free_term_once(self, monkeypatch):
        calls = self.counted(monkeypatch, Counter(),
                             (ccss, "ccss_capital"), (ccss, "ccss_operational"),
                             (conversion, "power_capital"), (conversion, "chemical_revenue"),
                             (water, "water_capital"), (water, "water_operational"),
                             (water, "pipe_length_m"), (water, "pipe_capital"),
                             (water, "pumping_operational"), (economics, "total_daily_cost"))
        query, econ = BreakevenQuery(COAL, METHANOL), CFG.econ_for(COAL)
        counts = []
        for _ in range(2):
            calls.clear()
            breakeven_distance(query, econ)
            counts.append(dict(calls))
        # the water terms are priced once for desalination, and the pipe's at both window ends
        assert counts == [{"ccss_capital": 1, "ccss_operational": 1, "power_capital": 1,
                           "chemical_revenue": 1, "water_capital": 1, "water_operational": 1,
                           "pipe_length_m": 2, "pipe_capital": 2,
                           "pumping_operational": 2}] * 2

    def count_built(self, monkeypatch) -> Counter:
        """Every Quantity, ScenarioConfig and NetworkTransfer built, by class name."""
        calls = self.count_quantities(monkeypatch, Counter())
        for cls in (ScenarioConfig, NetworkTransfer):
            def counting_post_init(self, _original=cls.__post_init__, _name=cls.__name__):
                calls[_name] += 1
                _original(self)
            monkeypatch.setattr(cls, "__post_init__", counting_post_init)
        return calls

    @pytest.mark.parametrize("bounds, built", [((1.0, 1000.0), {"Quantity": 1}),
                                               ((1.0, 100.0), {})],
                             ids=["crossing", "no-crossing"])
    def test_a_solve_builds_its_result_alone(self, monkeypatch, bounds, built):
        calls = self.count_built(monkeypatch)
        try:
            breakeven_distance(BreakevenQuery(COAL, METHANOL, bounds), CFG.econ_for(COAL))
        except NoCrossingError:
            pass
        assert calls == built

    @pytest.mark.parametrize("strategy", [StoreAll(), ReuseAll(METHANOL)],
                             ids=["store-all", "reuse-all"])
    def test_a_penalty_builds_its_result_alone(self, monkeypatch, strategy):
        calls = self.count_built(monkeypatch)
        penalty_threshold(BIOMASS, strategy, CFG.econ_for(BIOMASS), Desalination())
        assert calls == {"Quantity": 1}

    @pytest.mark.parametrize("n_flows", [1, 11])
    def test_a_curve_builds_no_quantity(self, monkeypatch, n_flows):
        calls = self.count_quantities(monkeypatch, Counter())
        self.counted(monkeypatch, calls, (water, "pump_power"), (water, "check_flow"),
                     (water, "pipe_length_m"), (economics, "daily_capital_charge"))
        w_max = _reuse_rates(METHANE, BIOMASS.cbar, 1.0)[1]
        distances = [10.0 * k for k in range(51)]
        flows = [w_max * k / n_flows for k in range(n_flows)] + [2.0 * w_max]   # one error
        econ = CFG.econ_for(BIOMASS)
        counts = []
        for _ in range(2):
            calls.clear()
            cells = transfer_cost_curve(BIOMASS, distances, flows, econ, METHANE)
            counts.append(dict(calls))
        assert sum(c.error is not None for c in cells) == len(distances)
        assert counts == [{"pipe_length_m": 51, "daily_capital_charge": 51,
                           "check_flow": n_flows + 1, "pump_power": 51 * n_flows}] * 2


def curve_oracle(d, f, w_max: float, econ: EconParams) -> str:
    """The repr of the curve cell at caller distance d and flow f, priced on its own."""
    d_km, f_m3_h = float(d), float(f)
    if not 0.0 <= f_m3_h <= w_max:
        error = (f"cell (d={d:g} km, f={f:g} m3/h): flow {f_m3_h:g} m3/h outside the "
                 f"production capacity [0, {w_max:g}]")
        return (f"CurveCell(distance_km={d_km!r}, flow_m3_h={f_m3_h!r}, capital_daily=None, "
                f"operational_daily=None, total_daily=None, error={error!r})")
    capital = daily_capital_charge(
        water_capital(NetworkTransfer(Quantity(d, "km")), w_max, econ), econ)
    check_flow(f_m3_h, w_max)
    operational = 24.0 * (econ.elec_price * pump_power(f_m3_h, effective_r_w(econ, d_km),
                                                       econ.eta_pump))
    total = capital + operational
    for name, value in (("capital charge", capital), ("operational cost", operational),
                        ("total cost", total)):
        if not math.isfinite(value):
            error = f"cell (d={d:g} km, f={f:g} m3/h): {name} must be finite, got {value!r} $/day"
            return (f"CurveCell(distance_km={d_km!r}, flow_m3_h={f_m3_h!r}, "
                    f"capital_daily=None, operational_daily=None, total_daily=None, "
                    f"error={error!r})")
    return (f"CurveCell(distance_km={d_km!r}, flow_m3_h={f_m3_h!r}, "
            f"capital_daily={capital!r}, operational_daily={operational!r}, "
            f"total_daily={total!r}, error=None)")


class TestTransferCurve:
    ECON = CFG.econ_for(BIOMASS)

    def test_zero_flow_column_has_zero_operational_cost(self):
        cells = transfer_cost_curve(BIOMASS, [60.0, 260.0, 300.0], [0.0, 90.0], self.ECON, METHANE)
        for c in cells:
            if c.flow_m3_h == 0.0:
                assert c.operational_daily == 0.0

    def test_operational_cell_is_cubic_in_flow(self):
        cells = transfer_cost_curve(BIOMASS, [100.0], [40.0, 80.0], self.ECON, METHANE)
        by_flow = {c.flow_m3_h: c for c in cells}
        assert by_flow[80.0].operational_daily == pytest.approx(
            8 * by_flow[40.0].operational_daily, rel=1e-12)

    def test_capital_row_linear_in_distance(self):
        cells = transfer_cost_curve(BIOMASS, [50.0, 100.0, 200.0], [90.0], self.ECON, METHANE)
        caps = [c.capital_daily for c in cells]
        assert caps[1] == pytest.approx(2 * caps[0], rel=1e-12)
        assert caps[2] == pytest.approx(4 * caps[0], rel=1e-12)

    def test_total_is_capital_plus_operational(self):
        cells = transfer_cost_curve(BIOMASS, [60.0], [90.0], self.ECON, METHANE)
        c = cells[0]
        assert c.total_daily == pytest.approx(c.capital_daily + c.operational_daily)

    def test_flow_bound_violation_marks_cell_only(self):
        cells = transfer_cost_curve(BIOMASS, [60.0], [90.0, 1e6], self.ECON, METHANE)
        assert cells[0].error is None
        assert cells[1].error is not None and "1e+06" in cells[1].error

    def test_empty_axes_rejected(self):
        with pytest.raises(DomainError):
            transfer_cost_curve(BIOMASS, [], [1.0], self.ECON, METHANE)

    def test_negative_distance_raises_out_of_the_whole_curve(self):
        with pytest.raises(DomainError, match="transfer distance must be >= 0"):
            transfer_cost_curve(BIOMASS, [60.0, -1.0], [90.0], self.ECON, METHANE)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), plant=st.sampled_from(CFG.plants) | st.builds(   # or one that overflows
               PlantSpec, st.just("huge"), st.builds(Quantity, st.floats(1e90, 1e303),
                                                     st.just("MW")),
               st.sampled_from([p.emission_factor for p in CFG.plants])),
           product=st.sampled_from(CFG.products),
           distances=st.lists(st.just(0) | st.just(0.0) | st.integers(0, 600)
                              | st.floats(0.0, 1000.0), min_size=1, max_size=4))
    def test_every_cell_matches_the_per_point_oracle(self, data, plant, product, distances):
        w_max = _reuse_rates(product, plant.cbar, 1.0)[1]
        flow = (st.floats(0.0, 1.0).map(lambda x: x * w_max) | st.just(w_max)
                | st.integers(-5, int(w_max) + 5) | st.just(math.nan)
                | st.floats(-w_max, -1e-9) | st.floats(1.0, 3.0).map(lambda x: x * w_max))
        flows = data.draw(st.lists(flow, min_size=1, max_size=5))
        econ = CFG.econ_for(plant)
        cells = transfer_cost_curve(plant, distances, flows, econ, product=product)
        expected = [curve_oracle(d, f, w_max, econ) for d in distances for f in flows]
        assert [repr(c) for c in cells] == expected


class TestCurveRoundingGap:
    def test_full_load_column_and_ledger_item_agree_to_rounding(self):
        """``24 * hour`` against 24 hours added one by one: equal to a few ulps."""
        rng = random.Random(16)
        differ = 0
        for _ in range(200):
            plant, product = rng.choice(CFG.plants), rng.choice(CFG.products)
            d = rng.uniform(0.0, 1000.0)
            econ = CFG.econ_for(plant)
            w_max = _reuse_rates(product, plant.cbar, 1.0)[1]
            column = transfer_cost_curve(plant, [d], [w_max], econ,
                                         product=product)[0].operational_daily
            result = total_daily_cost(ScenarioConfig(
                plant=plant, econ=econ, beta=1.0, product=product,
                water_mode=NetworkTransfer(Quantity(d, "km"))))
            (item,) = [i.amount for i in result.ledger.items if i.term == "water-operational"]
            assert abs(column - item) <= 1e-14 * abs(item), (plant.name, product.name, d)
            differ += column != item
        # the docstring and README say the two differ in the last bits; if this
        # reads 0, that statement is stale
        assert differ > 0


class TestCurveCell:
    # reprs taken from the frozen-dataclass CurveCell this type replaced
    COMPUTED = ("CurveCell(distance_km=60.0, flow_m3_h=50.0, capital_daily=3323.112585699472, "
                "operational_daily=269.6962689570955, total_daily=3592.8088546565677, "
                "error=None)")
    FAILED = ("CurveCell(distance_km=60.0, flow_m3_h=1000000.0, capital_daily=None, "
              "operational_daily=None, total_daily=None, error='cell (d=60 km, f=1e+06 m3/h): "
              "flow 1e+06 m3/h outside the production capacity [0, 188.182]')")

    def cells(self):
        return transfer_cost_curve(BIOMASS, [60], [50, 1e6],
                                   CFG.econ_for(BIOMASS), METHANE)

    def test_repr_is_the_dataclass_repr(self):
        assert [repr(c) for c in self.cells()] == [self.COMPUTED, self.FAILED]

    def test_fields_and_defaults(self):
        assert CurveCell._fields == ("distance_km", "flow_m3_h", "capital_daily",
                                     "operational_daily", "total_daily", "error")
        cell = CurveCell(1.0, 2.0)
        assert cell == (1.0, 2.0, None, None, None, None)
        assert type(self.cells()[0]) is CurveCell

    def test_error_cell_has_no_amounts(self):
        failed = self.cells()[1]
        assert failed.error is not None
        assert (failed.capital_daily, failed.operational_daily, failed.total_daily) == (
            None, None, None)

    def test_immutable_and_picklable(self):
        computed, failed = self.cells()
        with pytest.raises(AttributeError):
            computed.total_daily = 0.0
        with pytest.raises(AttributeError):
            computed.note = "x"   # no instance dict
        for cell in (computed, failed):
            back = pickle.loads(pickle.dumps(cell))
            assert type(back) is CurveCell and repr(back) == repr(cell)


class TestPenaltyThreshold:
    def test_store_all_biomass(self):
        # within acceptance A8's tolerance of the printed biomass storage penalty
        econ = CFG.econ_for(BIOMASS)
        thr = penalty_threshold(BIOMASS, StoreAll(), econ)
        row = next(row for row in scorecard(CFG, REFERENCE) if row["plant"] == "biomass"
                   and row["beta"] == 0.0 and row["quantity"] == "carbon_penalty_usd_per_ton")
        assert abs(thr.value_in("$/ton") - float(row["reference"])) <= row["tolerance"]

    def test_methane_reuse_threshold_negative_everywhere(self):
        for plant in (BIOMASS, GAS, COAL):
            econ = CFG.econ_for(plant)
            assert penalty_threshold(plant, ReuseAll(METHANE), econ,
                                     water_mode=CFG.water_mode).magnitude < 0

    def test_store_all_exceeds_every_reuse_threshold(self):
        for plant in (BIOMASS, GAS, COAL):
            store = penalty_threshold(plant, StoreAll(),
                                      CFG.econ_for(plant)).magnitude
            for product in (METHANE, METHANOL, ETHANOL):
                econ = CFG.econ_for(plant)
                assert store > penalty_threshold(plant, ReuseAll(product), econ,
                                                 water_mode=CFG.water_mode).magnitude

    @pytest.mark.parametrize("plant", [BIOMASS, GAS, COAL], ids=lambda p: p.name)
    def test_equals_the_scenarios_carbon_penalty(self, plant):
        # priced from the daily total alone: the same Quantity, bit for bit
        for product in (None, METHANE, METHANOL, ETHANOL):
            beta = 0.0 if product is None else 1.0
            econ = CFG.econ_for(plant)
            strategy = StoreAll() if product is None else ReuseAll(product)
            cell = CFG.scenario(plant, product, beta)
            assert (penalty_threshold(plant, strategy, econ, water_mode=CFG.water_mode)
                    == total_daily_cost(cell).carbon_penalty)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(DomainError):
            penalty_threshold(BIOMASS, "store", CFG.econ_for(BIOMASS))

    def test_reuse_all_without_water_mode_rejected(self):
        with pytest.raises(DomainError,
                           match=r"^a reuse scenario \(beta > 0\) needs a water mode$"):
            penalty_threshold(BIOMASS, ReuseAll(METHANE), CFG.econ_for(BIOMASS))

    @pytest.mark.parametrize("mode", [
        Desalination(), NetworkTransfer(Quantity(150.0, "km")), SolarSeawater()],
        ids=["desalination", "transfer", "solar"])
    def test_store_all_needs_no_water_mode(self, mode):
        econ = CFG.econ_for(BIOMASS)
        bare = penalty_threshold(BIOMASS, StoreAll(), econ)
        assert repr(bare) == repr(penalty_threshold(BIOMASS, StoreAll(), econ, water_mode=mode))


def decision(rows: list[dict], plant: str, question: str) -> dict:
    [row] = [r for r in rows if (r["plant"], r["question"]) == (plant, question)]
    return row


@st.composite
def decide_configs(draw):
    """The preset with drawn prices, unit capitals, friction and capital factor, in a drawn
    water mode: transfer up to 500 km, or solar seawater at a drawn ``c_sw``."""
    def scaled(value: float) -> float:
        return value * draw(st.floats(0.25, 4.0))

    econ = replace(CFG.econ, elec_price=scaled(0.25), c_des=scaled(2e5), c_tw=scaled(160.0),
                   c_wind=scaled(1030.0), e_des=tuple(scaled(e) for e in CFG.econ.e_des),
                   interest_rate=draw(st.floats(0.0, 0.1)),
                   horizon_years=draw(st.integers(1, 40)),
                   product_prices={k: scaled(v) for k, v in CFG.econ.product_prices.items()})
    calibration = replace(CFG.calibration, r_w_per_100km={
        k: scaled(v) for k, v in CFG.calibration.r_w_per_100km.items()})
    mode = draw(st.sampled_from(["desalination", "transfer", "solar"]))
    if mode == "transfer":
        water_mode = NetworkTransfer(Quantity(draw(st.floats(0.0, 500.0)), "km"))
    elif mode == "solar":
        econ, water_mode = replace(econ, c_sw=draw(st.floats(1e4, 1e6))), SolarSeawater()
    else:
        water_mode = Desalination()
    return replace(CFG, econ=econ, calibration=calibration, water_mode=water_mode)


class TestDecide:
    ROWS = decide(CFG)

    def test_the_preset_answers(self):
        assert [(r["plant"], r["question"]) for r in self.ROWS] == [
            (p.name, q) for p in CFG.plants for q in ("fate", "product", "water", "penalty")]
        table = {(r["plant"], r["question"]): r for r in self.ROWS}
        for plant, fate_gap, product_gap, km, reuse, store in (
                ("biomass", 566_627, 63_157, 86.20, -130.16, 75.14),
                ("natural_gas", 1_207_162, 134_551, 305.89, -138.15, 67.15),
                ("coal", 2_020_149, 225_167, 394.45, -140.99, 64.31)):
            fate, product, water_row, penalty = (
                table[plant, q] for q in ("fate", "product", "water", "penalty"))
            assert (fate["winner"], fate["runner_up"], fate["beta"]) == (
                "reuse methanol", "store", 1.0)
            assert round(fate["gap_usd_per_day"]) == fate_gap
            assert (product["winner"], product["runner_up"]) == ("methanol", "methane")
            assert round(product["gap_usd_per_day"]) == product_gap
            # no other supply is configured to compare with
            assert (water_row["winner"], water_row["runner_up"], water_row["gap_usd_per_day"]) == (
                "desalination", "", "")
            assert round(water_row["breakeven_km"], 2) == km
            assert round(water_row["c_sw_tie_usd_per_m3_h"], 2) == 276_265.85
            assert {k: penalty[k] for k in ("winner", "runner_up", "gap_usd_per_day", "beta")} == {
                k: fate[k] for k in ("winner", "runner_up", "gap_usd_per_day", "beta")}
            assert (round(penalty["penalty_usd_per_ton"], 2),
                    round(penalty["runner_up_penalty_usd_per_ton"], 2)) == (reuse, store)
            for row in (fate, product, water_row):
                assert row["penalty_usd_per_ton"] == row["runner_up_penalty_usd_per_ton"] == ""

    def test_a_transfer_column_has_its_interior_optimum(self):
        far = replace(CFG, water_mode=NetworkTransfer(Quantity(400.0, "km")))
        column = economics._column(BIOMASS, far.econ_for(BIOMASS), ETHANOL, far.water_mode)
        cost, beta, _ = analysis._optimum(column)
        assert round(beta, 3) == 0.669 and round(cost / 1e3, 1) == 205.2
        assert round(analysis._priced(column, 1.0)[0] / 1e3, 1) == 215.6
        # with ethanol alone, reusing part of the carbon beats storing all of it
        fate = decision(decide(replace(far, products=(ETHANOL,)), "biomass"), "biomass", "fate")
        assert (fate["winner"], fate["runner_up"], fate["beta"]) == (
            "reuse ethanol", "store", beta)

    def test_no_product_leaves_store_alone(self):
        rows = decide(replace(CFG, products=()), "coal")
        assert [(r["question"], r["winner"], r["runner_up"]) for r in rows] == [
            ("fate", "store", ""), ("product", "", ""), ("water", "", ""),
            ("penalty", "store", "")]
        assert rows[3]["penalty_usd_per_ton"] == penalty_threshold(
            COAL, StoreAll(), CFG.econ_for(COAL)).magnitude

    @pytest.mark.parametrize("mode", ["Desalination", "NetworkTransfer"])
    def test_prices_by_column_with_no_scenario_and_no_ledger(self, monkeypatch, mode):
        cfg = CFG if mode == "Desalination" else replace(
            CFG, water_mode=NetworkTransfer(Quantity(250.0, "km")))
        expected = decide(cfg)
        built, columns = Counter(), Counter()
        # EconParams too: the c_sw tie prices solar's water capital without a replaced econ
        for cls in (ScenarioConfig, CostLedger, EconParams):
            def counting_post_init(self, _original=cls.__post_init__, _name=cls.__name__):
                built[_name] += 1
                _original(self)
            monkeypatch.setattr(cls, "__post_init__", counting_post_init)
        for name in ("_result", "_rows", "total_daily_cost"):
            def counting(*args, _original=getattr(economics, name), _name=name):
                built[_name] += 1
                return _original(*args)
            monkeypatch.setattr(economics, name, counting)
        set_up = economics._column

        def counting_column(plant, econ, product, mode, *captured):
            columns[plant.name, getattr(product, "name", ""), type(mode).__name__] += 1
            return set_up(plant, econ, product, mode, *captured)

        monkeypatch.setattr(economics, "_column", counting_column)
        assert decide(cfg) == expected
        assert built == {}
        # one column per (plant, product or storage) in the config's mode, set up once; the
        # chosen product's desalination column, which the break-even solve and the c_sw tie
        # read, is one of them in desalination mode, and set up once more in another mode
        assert columns == {(p.name, x, mode): 1 for p in CFG.plants
                           for x in ("", "methane", "methanol", "ethanol")} | {
            (p.name, "methanol", "Desalination"): 1 for p in CFG.plants}

    @settings(max_examples=20, deadline=None)
    @given(cfg=decide_configs())
    def test_a_dense_beta_scan_never_beats_the_optimum(self, cfg):
        rows = decide(cfg)
        scan = replace(cfg, sweep_betas=tuple(i / 1000 for i in range(1, 1001))).sweep()
        for p in cfg.plants:
            fate = decision(rows, p.name, "fate")
            daily = {(c.product, c.beta): c.result.daily_cost.magnitude
                     for c in scan if c.plant == p.name}
            store = daily["", 0.0]
            optimum = store if fate["winner"] == "store" else store - fate["gap_usd_per_day"]
            rounding = 1e-12 * max(abs(v) for v in daily.values())
            assert min(daily.values()) >= optimum - rounding
            for x in cfg.products:   # each column's optimum, or its beta -> 0+ limit
                column = economics._column(p, cfg.econ_for(p), x, cfg.water_mode)
                best = min(analysis._optimum(column)[0], analysis._priced(column, 0.0)[0])
                assert min(v for (name, _), v in daily.items() if name == x.name) >= (
                    best - rounding)
            if fate["winner"] != "store":   # the optimum is a cell the public path prices
                product = cfg.product(fate["winner"].removeprefix("reuse "))
                priced = total_daily_cost(cfg.scenario(p, product, fate["beta"]))
                assert abs(priced.daily_cost.magnitude - optimum) <= rounding

    @settings(max_examples=60, deadline=None)
    @given(cfg=decide_configs())
    def test_the_water_and_penalty_rows_match_their_closed_forms_and_solvers(self, cfg):
        rows = decide(cfg)
        for p in cfg.plants:
            econ = cfg.econ_for(p)
            water_row, penalty = decision(rows, p.name, "water"), decision(rows, p.name, "penalty")
            product = cfg.product(decision(rows, p.name, "product")["winner"])
            # solar's capital beyond desalination's, per day, pays for the RO bill at full flow
            capital_factor = ((1.0 + econ.interest_rate) ** (econ.horizon_years - 1)
                              / (365.0 * econ.horizon_years))
            tie = econ.c_des + 24.0 * econ.elec_price * econ.e_des[3] / capital_factor
            assert water_row["c_sw_tie_usd_per_m3_h"] == pytest.approx(tie, rel=1e-12)
            try:
                km = breakeven_distance(BreakevenQuery(p, product), econ).magnitude
            except NoCrossingError:
                km = ""
            assert water_row["breakeven_km"] == km
            for name, value in ((penalty["winner"], penalty["penalty_usd_per_ton"]),
                                (penalty["runner_up"], penalty["runner_up_penalty_usd_per_ton"])):
                if name == "store":
                    expected = penalty_threshold(p, StoreAll(), econ)
                elif name == penalty["winner"] and penalty["beta"] == 1.0:
                    expected = penalty_threshold(p, ReuseAll(product), econ, cfg.water_mode)
                else:
                    continue
                assert value == expected.magnitude   # bit for bit


class TestScorecard:
    ROWS = scorecard(CFG, REFERENCE)

    def test_the_reference_is_read_only(self):
        entry = REFERENCE[0]
        with pytest.raises(TypeError):
            entry["value"] = "0"
        assert paper_2024_reference() is REFERENCE and isinstance(REFERENCE, tuple)

    def test_a_row_per_reference_value_and_the_passes_per_table(self):
        assert [(r["quantity"], r["plant"], r["product"]) for r in self.ROWS] == [
            (e["quantity"], e.get("plant", ""), e.get("product", "")) for e in REFERENCE]
        passed = Counter(r["quantity"] for r in self.ROWS if r["pass"])
        assert (len(self.ROWS), sum(passed.values())) == (96, 36)
        assert passed == {"h2_ton_per_h": 9, "water_m3_per_h": 5, "chemical_ton_per_h": 9,
                          "daily_cost_musd_per_day": 3, "increased_price_usd_per_kwh": 3,
                          "carbon_penalty_usd_per_ton": 1, "breakeven_distance_km": 3,
                          "xi_h": 3}
        # the storage rows match the printed daily cost and price uplift; no reuse row does
        assert {(r["beta"], r["pass"]) for r in self.ROWS if r["quantity"] in (
            "daily_cost_musd_per_day", "increased_price_usd_per_kwh")} == {
            (0.0, True), (0.5, False), (1.0, False)}

    def test_each_cost_table_cell_is_priced_once(self, monkeypatch):
        priced, price = Counter(), economics._price_row

        def counting(column, beta):   # a column is (plant, econ, product, ...)
            priced[column[0].name, getattr(column[2], "name", ""), beta] += 1
            return price(column, beta)

        monkeypatch.setattr(economics, "_price_row", counting)
        assert scorecard(CFG, REFERENCE) == self.ROWS
        # the 21 cells of the cost table, each read by its M$/day, $/kWh and $/ton rows
        assert len(priced) == 21 and set(priced.values()) == {1}

    def test_each_sizing_cell_is_sized_once(self, monkeypatch):
        sized = Counter()

        def counting(plant, product, beta):
            sized[plant.name, product.name, beta] += 1
            return nexus_rates(plant, product, beta)

        monkeypatch.setattr(analysis, "nexus_rates", counting)
        assert scorecard(CFG, REFERENCE) == self.ROWS
        # the 9 cells of the sizing table, each read by its H2, water and product rows
        assert len(sized) == 9 and set(sized.values()) == {1}

    def test_tolerance_is_the_entrys_else_half_the_print_quantum(self):
        def entry(value, **tolerance):
            return {"quantity": "h2_ton_per_h", "plant": "coal", "product": "methane",
                    "beta": 1.0, "value": value, **tolerance}

        computed = nexus_rates(COAL, METHANE, 1.0)[0].value_in("ton/h")   # 74.5454...
        rows = scorecard(CFG, (entry("74"), entry("74.5"), entry("74.55"), entry("74.50"),
                               entry("-80", tolerance="10%"), entry("80", tolerance="6")))
        assert [(r["tolerance"], r["pass"]) for r in rows] == [
            (0.5, False), (0.05, True), (0.005, True), (0.005, False), (8.0, False), (6.0, True)]
        for r in rows + self.ROWS:
            assert r["pass"] == (abs(r["computed"] - float(r["reference"])) <= r["tolerance"])
            assert r["relative_error"] == (
                (r["computed"] - float(r["reference"])) / abs(float(r["reference"])))
        assert rows[4]["relative_error"] == (computed + 80) / 80

    def test_a_zero_reference_has_no_relative_error(self):
        rows = scorecard(CFG, [{"quantity": "xi_h", "product": "methane", "value": value}
                               for value in ("0", "0.0")])
        assert [(r["computed"], r["relative_error"], r["tolerance"], r["pass"]) for r in rows] == [
            (METHANE.xi_h, "", 0.5, True), (METHANE.xi_h, "", 0.05, False)]

    def test_every_reuse_daily_cost_row_and_no_other_has_a_per_ton_gap(self):
        gaps = {(r["plant"], r["product"], r["beta"]): r["gap_usd_per_ton"] for r in self.ROWS
                if r["gap_usd_per_ton"] != ""}
        assert len(gaps) == 18 and all(beta > 0 for _, _, beta in gaps)
        assert -158.76 <= min(gaps.values()) < max(gaps.values()) <= -18.84
        for (plant, product, beta), gap in gaps.items():
            row = next(r for r in self.ROWS if r["quantity"] == "daily_cost_musd_per_day"
                       and (r["plant"], r["product"], r["beta"]) == (plant, product, beta))
            daily = total_daily_cost(CFG.scenario(CFG.plant(plant), CFG.product(product), beta))
            gap_per_day = daily.daily_cost.value_in("$/day") - float(row["reference"]) * 1e6
            assert gap == pytest.approx(gap_per_day / (beta * CFG.plant(plant).cbar_day))

    def test_priced_by_the_public_paths(self):
        for r in self.ROWS:
            if r["quantity"] == "carbon_penalty_usd_per_ton" and r["beta"] in (0.0, 1.0):
                plant = CFG.plant(r["plant"])
                strategy = ReuseAll(CFG.product(r["product"])) if r["product"] else StoreAll()
                assert r["computed"] == penalty_threshold(
                    plant, strategy, CFG.econ_for(plant), water_mode=CFG.water_mode).magnitude
            if r["quantity"] == "xi_h":
                assert r["computed"] == CFG.product(r["product"]).xi_h
            if r["quantity"] == "breakeven_distance_km":
                plant = CFG.plant(r["plant"])
                query = BreakevenQuery(plant, CFG.product(r["product"]))
                assert r["computed"] == breakeven_distance(query, CFG.econ_for(plant)).magnitude
            if r["quantity"] == "water_m3_per_h":
                rates = nexus_rates(CFG.plant(r["plant"]), CFG.product(r["product"]), r["beta"])
                assert r["computed"] == rates[1].value_in("m3/h")

    def test_another_water_mode_prices_the_cost_rows_in_it(self):
        transfer = replace(CFG, water_mode=NetworkTransfer(Quantity(150.0, "km")))
        rows = scorecard(transfer, REFERENCE)
        changed = {r["quantity"] for r, before in zip(rows, self.ROWS)
                   if r["computed"] != before["computed"]}
        assert changed == {"daily_cost_musd_per_day", "increased_price_usd_per_kwh",
                           "carbon_penalty_usd_per_ton"}

    def test_an_entry_the_config_cannot_price_is_an_error_row(self):
        entries = (
            {"quantity": "h2_ton_per_h", "plant": "lignite", "product": "methane", "beta": 1.0,
             "value": "80"},
            {"quantity": "xi_h", "product": "formic_acid", "value": "0.0435"},
            {"quantity": "breakeven_distance_km", "plant": "coal", "product": "methane",
             "value": "301"})
        # free desalination beats any pipe, so no break-even exists
        cfg = replace(CFG, econ=replace(CFG.econ, c_des=0.0, e_des=(0.0,) * 4))
        lignite, formic, coal = scorecard(cfg, entries)
        assert lignite == {"quantity": "h2_ton_per_h", "plant": "lignite", "product": "methane",
                           "beta": 1.0, "error": "h2_ton_per_h (lignite, methane): unknown "
                           "plant 'lignite'; configured plants are ['biomass', 'natural_gas', "
                           "'coal']"}
        assert formic["error"].startswith("xi_h (-, formic_acid): unknown product")
        assert coal["error"].startswith("breakeven_distance_km (coal, methane): no break-even")


class TestNoDefaultPicksACellsInputs:
    # the betas, water mode and product come from the config or the caller
    ECON = CFG.econ_for(BIOMASS)

    @pytest.mark.parametrize("call", [
        lambda econ: SweepGrid(CFG.plants, CFG.products),
        lambda econ: SweepGrid(CFG.plants, CFG.products, CFG.sweep_betas),
        lambda econ: transfer_cost_curve(BIOMASS, [60.0], [90.0], econ),
        lambda econ: LoadedConfig(CFG.econ, CFG.plants, CFG.products),
    ], ids=["grid-betas", "grid-water-mode", "curve-product", "config-sections"])
    def test_leaving_an_input_out_is_a_type_error(self, call):
        with pytest.raises(TypeError, match="missing"):
            call(self.ECON)
